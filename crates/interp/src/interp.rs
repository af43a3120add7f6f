//! The mini PHP interpreter.
//!
//! Executes the PHP subset concretely, with two twists that make it an
//! *exploit-confirmation* engine rather than a web runtime:
//!
//! 1. superglobals are populated from a mock [`Request`] (the attack), and
//! 2. sensitive sinks (from the [`Catalog`], including linked weapons) are
//!    **logged instead of executed**: each call to `mysql_query`, `echo`,
//!    `header`, `$wpdb->query`, ... records a [`SinkEvent`] with the
//!    concrete argument strings that would have reached the database /
//!    browser / shell.
//!
//! Sanitization functions are implemented with real semantics, so running
//! the corrected source shows the payload neutralized.

use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use wap_catalog::{Catalog, SinkKind};
use wap_php::ast::*;

/// A mock HTTP request: superglobal name (without `$`) → key → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    params: BTreeMap<String, BTreeMap<String, String>>,
}

impl Request {
    /// An empty request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `$_<global>[key] = value`, e.g. `set("_GET", "id", "1 OR 1=1")`.
    pub fn set(&mut self, global: &str, key: &str, value: &str) -> &mut Self {
        self.params
            .entry(global.to_string())
            .or_default()
            .insert(key.to_string(), value.to_string());
        self
    }

    /// Convenience: GET parameter.
    pub fn get(mut self, key: &str, value: &str) -> Self {
        self.set("_GET", key, value);
        self
    }

    /// Convenience: POST parameter.
    pub fn post(mut self, key: &str, value: &str) -> Self {
        self.set("_POST", key, value);
        self
    }

    fn lookup(&self, global: &str) -> Value {
        let map = self.params.get(global).cloned().unwrap_or_default();
        Value::Array(map.into_iter().map(|(k, v)| (k, Value::Str(v))).collect())
    }
}

/// One sensitive-sink invocation observed during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkEvent {
    /// Sink name (`mysql_query`, `echo`, `include`, `$wpdb->query`, ...).
    pub sink: String,
    /// 1-based source line.
    pub line: u32,
    /// Concrete argument strings that reached the sink.
    pub args: Vec<String>,
}

/// The result of executing a program against a request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Everything echoed/printed.
    pub output: String,
    /// Sink invocations, in execution order.
    pub sinks: Vec<SinkEvent>,
    /// Whether the script called `exit`/`die`.
    pub exited: bool,
    /// Steps consumed (budget diagnostics).
    pub steps: usize,
}

impl ExecOutcome {
    /// Sink events whose name contains `needle` (e.g. `"query"`).
    pub fn sinks_named<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a SinkEvent> + 'a {
        self.sinks.iter().filter(move |s| s.sink.contains(needle))
    }
}

const STEP_BUDGET: usize = 200_000;
const MAX_DEPTH: usize = 48;

enum Flow {
    Normal,
    Break(i64),
    Continue(i64),
    Return(Value),
    Exit,
}

/// Executes `files` (parsed programs of one application) against a mock
/// request, logging sink invocations instead of performing them.
pub fn execute(catalog: &Catalog, request: &Request, files: &[&Program]) -> ExecOutcome {
    let mut functions: HashMap<String, Function> = HashMap::new();
    for p in files {
        for f in p.functions() {
            functions.insert(f.name.lower().as_str().to_string(), f.clone());
        }
    }
    let mut interp = Interp {
        catalog,
        request,
        functions,
        output: String::new(),
        sinks: Vec::new(),
        steps: 0,
        depth: 0,
        exited: false,
    };
    let mut env: BTreeMap<String, Value> = BTreeMap::new();
    for p in files {
        if interp.exited {
            break;
        }
        interp.exec_block(&mut env, &p.stmts);
    }
    ExecOutcome {
        output: interp.output,
        sinks: interp.sinks,
        exited: interp.exited,
        steps: interp.steps,
    }
}

struct Interp<'a> {
    catalog: &'a Catalog,
    request: &'a Request,
    functions: HashMap<String, Function>,
    output: String,
    sinks: Vec<SinkEvent>,
    steps: usize,
    depth: usize,
    exited: bool,
}

type Env = BTreeMap<String, Value>;

impl Interp<'_> {
    fn tick(&mut self) -> bool {
        self.steps += 1;
        self.steps < STEP_BUDGET && !self.exited
    }

    fn exec_block(&mut self, env: &mut Env, stmts: &[Stmt]) -> Flow {
        for s in stmts {
            match self.exec_stmt(env, s) {
                Flow::Normal => {}
                other => return other,
            }
        }
        Flow::Normal
    }

    fn exec_stmt(&mut self, env: &mut Env, stmt: &Stmt) -> Flow {
        if !self.tick() {
            return Flow::Exit;
        }
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.eval(env, e);
                if self.exited {
                    return Flow::Exit;
                }
                Flow::Normal
            }
            StmtKind::Echo(items) => {
                let mut args = Vec::new();
                for e in items {
                    let v = self.eval(env, e).to_php_string();
                    self.output.push_str(&v);
                    args.push(v);
                }
                self.sinks.push(SinkEvent {
                    sink: "echo".into(),
                    line: stmt.span.line(),
                    args,
                });
                Flow::Normal
            }
            StmtKind::InlineHtml(h) => {
                self.output.push_str(h);
                Flow::Normal
            }
            StmtKind::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
            } => {
                if self.eval(env, cond).truthy() {
                    return self.exec_block(env, then_branch);
                }
                for (c, b) in elseifs {
                    if self.eval(env, c).truthy() {
                        return self.exec_block(env, b);
                    }
                }
                if let Some(b) = else_branch {
                    return self.exec_block(env, b);
                }
                Flow::Normal
            }
            StmtKind::While { cond, body } => {
                while self.eval(env, cond).truthy() {
                    if !self.tick() {
                        break;
                    }
                    match self.exec_block(env, body) {
                        Flow::Break(n) if n <= 1 => break,
                        Flow::Break(n) => return Flow::Break(n - 1),
                        Flow::Continue(n) if n <= 1 => continue,
                        Flow::Continue(n) => return Flow::Continue(n - 1),
                        Flow::Normal => {}
                        other => return other,
                    }
                }
                Flow::Normal
            }
            StmtKind::DoWhile { body, cond } => loop {
                if !self.tick() {
                    return Flow::Normal;
                }
                match self.exec_block(env, body) {
                    Flow::Break(n) if n <= 1 => return Flow::Normal,
                    Flow::Break(n) => return Flow::Break(n - 1),
                    Flow::Continue(n) if n > 1 => return Flow::Continue(n - 1),
                    Flow::Normal | Flow::Continue(_) => {}
                    other => return other,
                }
                if !self.eval(env, cond).truthy() {
                    return Flow::Normal;
                }
            },
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                for e in init {
                    self.eval(env, e);
                }
                loop {
                    if !self.tick() {
                        break;
                    }
                    let go = match cond.last() {
                        Some(c) => self.eval(env, c).truthy(),
                        None => true,
                    };
                    if !go {
                        break;
                    }
                    match self.exec_block(env, body) {
                        Flow::Break(n) if n <= 1 => break,
                        Flow::Break(n) => return Flow::Break(n - 1),
                        Flow::Continue(n) if n > 1 => return Flow::Continue(n - 1),
                        Flow::Normal | Flow::Continue(_) => {}
                        other => return other,
                    }
                    for e in step {
                        self.eval(env, e);
                    }
                }
                Flow::Normal
            }
            StmtKind::Foreach {
                array,
                key,
                value,
                body,
                ..
            } => {
                let arr = self.eval(env, array);
                if let Value::Array(map) = arr {
                    for (k, v) in map {
                        if !self.tick() {
                            break;
                        }
                        if let Some(kv) = key {
                            self.assign(env, kv, Value::Str(k.clone()));
                        }
                        self.assign(env, value, v);
                        match self.exec_block(env, body) {
                            Flow::Break(n) if n <= 1 => break,
                            Flow::Break(n) => return Flow::Break(n - 1),
                            Flow::Continue(n) if n > 1 => return Flow::Continue(n - 1),
                            Flow::Normal | Flow::Continue(_) => {}
                            other => return other,
                        }
                    }
                }
                Flow::Normal
            }
            StmtKind::Switch { subject, cases } => {
                let v = self.eval(env, subject);
                let mut matched = false;
                for c in cases {
                    if !matched {
                        match &c.test {
                            Some(t) => {
                                let tv = self.eval(env, t);
                                if v.loose_eq(&tv) {
                                    matched = true;
                                }
                            }
                            None => matched = true,
                        }
                    }
                    if matched {
                        match self.exec_block(env, &c.body) {
                            Flow::Break(n) if n <= 1 => return Flow::Normal,
                            Flow::Break(n) => return Flow::Break(n - 1),
                            Flow::Normal => {}
                            other => return other,
                        }
                    }
                }
                Flow::Normal
            }
            StmtKind::Break(n) => Flow::Break(n.unwrap_or(1)),
            StmtKind::Continue(n) => Flow::Continue(n.unwrap_or(1)),
            StmtKind::Return(e) => {
                let v = e.as_ref().map(|e| self.eval(env, e)).unwrap_or(Value::Null);
                Flow::Return(v)
            }
            StmtKind::Global(names) => {
                for n in names {
                    env.entry(n.to_string()).or_insert(Value::Null);
                }
                Flow::Normal
            }
            StmtKind::StaticVars(vars) => {
                for (n, d) in vars {
                    let v = d.as_ref().map(|e| self.eval(env, e)).unwrap_or(Value::Null);
                    env.entry(n.to_string()).or_insert(v);
                }
                Flow::Normal
            }
            StmtKind::Function(_) | StmtKind::Class(_) | StmtKind::Nop => Flow::Normal,
            StmtKind::Include { path, .. } => {
                let p = self.eval(env, path).to_php_string();
                self.sinks.push(SinkEvent {
                    sink: "include".into(),
                    line: stmt.span.line(),
                    args: vec![p],
                });
                Flow::Normal
            }
            StmtKind::Unset(targets) => {
                for t in targets {
                    if let Some(root) = t.root_var() {
                        env.remove(root);
                    }
                }
                Flow::Normal
            }
            StmtKind::Block(b) => self.exec_block(env, b),
            StmtKind::Try {
                body,
                catches: _,
                finally,
            } => {
                let f = self.exec_block(env, body);
                if let Some(fin) = finally {
                    self.exec_block(env, fin);
                }
                f
            }
            StmtKind::Throw(e) => {
                self.eval(env, e);
                Flow::Exit
            }
        }
    }

    fn eval(&mut self, env: &mut Env, expr: &Expr) -> Value {
        if !self.tick() {
            return Value::Null;
        }
        match &expr.kind {
            ExprKind::Var(n) => {
                if self.is_superglobal(n.as_str()) {
                    self.request.lookup(n.as_str())
                } else {
                    env.get(n.as_str()).cloned().unwrap_or(Value::Null)
                }
            }
            ExprKind::Lit(l) => match l {
                Lit::Int(i) => Value::Int(*i),
                Lit::Float(f) => Value::Float(*f),
                Lit::Str(s) => Value::Str(s.clone()),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Null => Value::Null,
            },
            ExprKind::Name(n) => match n.lower().as_str() {
                "php_eol" => Value::Str("\n".into()),
                "file_append" => Value::Int(8),
                _ => Value::Str(n.to_string()),
            },
            ExprKind::Interp(parts) => {
                let mut s = String::new();
                for p in parts {
                    s.push_str(&self.eval(env, p).to_php_string());
                }
                Value::Str(s)
            }
            ExprKind::ShellExec(parts) => {
                let mut s = String::new();
                for p in parts {
                    s.push_str(&self.eval(env, p).to_php_string());
                }
                self.sinks.push(SinkEvent {
                    sink: "`backtick`".into(),
                    line: expr.span.line(),
                    args: vec![s],
                });
                Value::Str(String::new())
            }
            ExprKind::ArrayDim { base, index } => {
                let b = self.eval(env, base);
                let key = index
                    .as_deref()
                    .map(|i| self.eval(env, i).to_php_string())
                    .unwrap_or_default();
                match b {
                    Value::Array(map) => map.get(&key).cloned().unwrap_or(Value::Null),
                    Value::Str(s) => {
                        let idx: usize = key.parse().unwrap_or(0);
                        s.chars()
                            .nth(idx)
                            .map(|c| Value::Str(c.to_string()))
                            .unwrap_or(Value::Null)
                    }
                    _ => Value::Null,
                }
            }
            ExprKind::Prop { base, name } => {
                if let Some(root) = base.root_var() {
                    env.get(&format!("{root}->{name}"))
                        .cloned()
                        .unwrap_or_else(|| {
                            // $wpdb->prefix and friends get stable placeholders
                            Value::Str(format!("{{{name}}}"))
                        })
                } else {
                    Value::Null
                }
            }
            ExprKind::StaticProp { class, name } => env
                .get(&format!("{class}::${name}"))
                .cloned()
                .unwrap_or(Value::Null),
            ExprKind::ClassConst { name, .. } => Value::Str(name.to_string()),
            ExprKind::Call { callee, args } => {
                let name = match &callee.kind {
                    ExprKind::Name(n) => *n,
                    other => {
                        let _ = other;
                        return Value::Null;
                    }
                };
                let argv: Vec<Value> = args.iter().map(|a| self.eval(env, a)).collect();
                self.call_function(env, name.as_str(), argv, expr.span.line())
            }
            ExprKind::MethodCall {
                target,
                method,
                args,
            } => {
                let recv = target.root_var().map(str::to_string);
                let argv: Vec<Value> = args.iter().map(|a| self.eval(env, a)).collect();
                self.call_method(
                    env,
                    recv.as_deref(),
                    method.as_str(),
                    argv,
                    expr.span.line(),
                )
            }
            ExprKind::StaticCall { method, args, .. } => {
                let argv: Vec<Value> = args.iter().map(|a| self.eval(env, a)).collect();
                self.call_function(env, method.as_str(), argv, expr.span.line())
            }
            ExprKind::New { args, .. } => {
                for a in args {
                    self.eval(env, a);
                }
                Value::Array(BTreeMap::new())
            }
            ExprKind::Assign {
                target, op, value, ..
            } => {
                let v = self.eval(env, value);
                let new = match op {
                    AssignOp::Assign => v,
                    AssignOp::Concat => {
                        let old = self.read(env, target);
                        Value::Str(format!("{}{}", old.to_php_string(), v.to_php_string()))
                    }
                    AssignOp::Add => {
                        Value::Int(self.read(env, target).to_php_int() + v.to_php_int())
                    }
                    AssignOp::Sub => {
                        Value::Int(self.read(env, target).to_php_int() - v.to_php_int())
                    }
                    AssignOp::Mul => {
                        Value::Int(self.read(env, target).to_php_int() * v.to_php_int())
                    }
                    AssignOp::Div => {
                        let d = v.to_php_int();
                        Value::Int(if d == 0 {
                            0
                        } else {
                            self.read(env, target).to_php_int() / d
                        })
                    }
                    AssignOp::Mod => {
                        let d = v.to_php_int();
                        Value::Int(if d == 0 {
                            0
                        } else {
                            self.read(env, target).to_php_int() % d
                        })
                    }
                    AssignOp::Coalesce => {
                        let old = self.read(env, target);
                        if matches!(old, Value::Null) {
                            v
                        } else {
                            old
                        }
                    }
                };
                self.assign(env, target, new.clone());
                new
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(env, *op, lhs, rhs),
            ExprKind::Unary { op, expr } => {
                let v = self.eval(env, expr);
                match op {
                    UnOp::Not => Value::Bool(!v.truthy()),
                    UnOp::Neg => Value::Int(-v.to_php_int()),
                    UnOp::Pos => Value::Int(v.to_php_int()),
                    UnOp::BitNot => Value::Int(!v.to_php_int()),
                }
            }
            ExprKind::IncDec { pre, inc, target } => {
                let old = self.read(env, target).to_php_int();
                let new = if *inc { old + 1 } else { old - 1 };
                self.assign(env, target, Value::Int(new));
                Value::Int(if *pre { new } else { old })
            }
            ExprKind::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval(env, cond);
                if c.truthy() {
                    match then {
                        Some(t) => self.eval(env, t),
                        None => c,
                    }
                } else {
                    self.eval(env, otherwise)
                }
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(env, expr);
                match ty {
                    CastType::Int => Value::Int(v.to_php_int()),
                    CastType::Float => Value::Float(v.to_php_int() as f64),
                    CastType::Str => Value::Str(v.to_php_string()),
                    CastType::Bool => Value::Bool(v.truthy()),
                    CastType::Array => match v {
                        a @ Value::Array(_) => a,
                        other => {
                            let mut m = BTreeMap::new();
                            m.insert("0".to_string(), other);
                            Value::Array(m)
                        }
                    },
                    CastType::Object | CastType::Unset => Value::Null,
                }
            }
            ExprKind::Isset(es) => {
                let all = es.iter().all(|e| {
                    let v = self.eval(env, e);
                    !matches!(v, Value::Null)
                });
                Value::Bool(all)
            }
            ExprKind::Empty(e) => {
                let v = self.eval(env, e);
                Value::Bool(!v.truthy())
            }
            ExprKind::Array(items) => {
                let mut map = BTreeMap::new();
                let mut next = 0i64;
                for it in items {
                    let key = match &it.key {
                        Some(k) => self.eval(env, k).to_php_string(),
                        None => {
                            let k = next.to_string();
                            next += 1;
                            k
                        }
                    };
                    let v = self.eval(env, &it.value);
                    map.insert(key, v);
                }
                Value::Array(map)
            }
            ExprKind::List(_) => Value::Null,
            ExprKind::Closure(_) => Value::Null,
            ExprKind::ErrorSuppress(e) => self.eval(env, e),
            ExprKind::Exit(arg) => {
                if let Some(a) = arg {
                    let v = self.eval(env, a).to_php_string();
                    self.output.push_str(&v);
                }
                self.exited = true;
                Value::Null
            }
            ExprKind::Print(e) => {
                let v = self.eval(env, e).to_php_string();
                self.output.push_str(&v);
                self.sinks.push(SinkEvent {
                    sink: "print".into(),
                    line: expr.span.line(),
                    args: vec![v],
                });
                Value::Int(1)
            }
            ExprKind::InstanceOf { expr, .. } => {
                self.eval(env, expr);
                Value::Bool(false)
            }
            ExprKind::Clone(e) => self.eval(env, e),
            ExprKind::IncludeExpr { path, .. } => {
                let p = self.eval(env, path).to_php_string();
                self.sinks.push(SinkEvent {
                    sink: "include".into(),
                    line: expr.span.line(),
                    args: vec![p],
                });
                Value::Bool(true)
            }
        }
    }

    fn eval_binary(&mut self, env: &mut Env, op: BinOp, lhs: &Expr, rhs: &Expr) -> Value {
        match op {
            BinOp::And => {
                let l = self.eval(env, lhs);
                if !l.truthy() {
                    return Value::Bool(false);
                }
                Value::Bool(self.eval(env, rhs).truthy())
            }
            BinOp::Or => {
                let l = self.eval(env, lhs);
                if l.truthy() {
                    return Value::Bool(true);
                }
                Value::Bool(self.eval(env, rhs).truthy())
            }
            BinOp::Coalesce => {
                let l = self.eval(env, lhs);
                if matches!(l, Value::Null) {
                    self.eval(env, rhs)
                } else {
                    l
                }
            }
            _ => {
                let l = self.eval(env, lhs);
                let r = self.eval(env, rhs);
                match op {
                    BinOp::Concat => {
                        Value::Str(format!("{}{}", l.to_php_string(), r.to_php_string()))
                    }
                    BinOp::Add => Value::Int(l.to_php_int() + r.to_php_int()),
                    BinOp::Sub => Value::Int(l.to_php_int() - r.to_php_int()),
                    BinOp::Mul => Value::Int(l.to_php_int() * r.to_php_int()),
                    BinOp::Div => {
                        let d = r.to_php_int();
                        Value::Int(if d == 0 { 0 } else { l.to_php_int() / d })
                    }
                    BinOp::Mod => {
                        let d = r.to_php_int();
                        Value::Int(if d == 0 { 0 } else { l.to_php_int() % d })
                    }
                    BinOp::Eq => Value::Bool(l.loose_eq(&r)),
                    BinOp::NotEq => Value::Bool(!l.loose_eq(&r)),
                    BinOp::Identical => Value::Bool(l.strict_eq(&r)),
                    BinOp::NotIdentical => Value::Bool(!l.strict_eq(&r)),
                    BinOp::Lt => Value::Bool(l.to_php_int() < r.to_php_int()),
                    BinOp::Gt => Value::Bool(l.to_php_int() > r.to_php_int()),
                    BinOp::Le => Value::Bool(l.to_php_int() <= r.to_php_int()),
                    BinOp::Ge => Value::Bool(l.to_php_int() >= r.to_php_int()),
                    BinOp::Spaceship => Value::Int((l.to_php_int() - r.to_php_int()).signum()),
                    BinOp::Xor => Value::Bool(l.truthy() ^ r.truthy()),
                    BinOp::BitAnd => Value::Int(l.to_php_int() & r.to_php_int()),
                    BinOp::BitOr => Value::Int(l.to_php_int() | r.to_php_int()),
                    BinOp::BitXor => Value::Int(l.to_php_int() ^ r.to_php_int()),
                    BinOp::Shl => Value::Int(l.to_php_int() << (r.to_php_int() & 63)),
                    BinOp::Shr => Value::Int(l.to_php_int() >> (r.to_php_int() & 63)),
                    _ => Value::Null,
                }
            }
        }
    }

    fn read(&mut self, env: &mut Env, target: &Expr) -> Value {
        match &target.kind {
            ExprKind::Var(n) => env.get(n.as_str()).cloned().unwrap_or(Value::Null),
            ExprKind::ArrayDim { .. } | ExprKind::Prop { .. } => {
                // re-evaluate as an rvalue
                let cloned = target.clone();
                self.eval(env, &cloned)
            }
            _ => Value::Null,
        }
    }

    fn assign(&mut self, env: &mut Env, target: &Expr, value: Value) {
        match &target.kind {
            ExprKind::Var(n) => {
                env.insert(n.to_string(), value);
            }
            ExprKind::ArrayDim { base, index } => {
                if let Some(root) = base.root_var() {
                    let key = match index.as_deref() {
                        Some(i) => self.eval(env, i).to_php_string(),
                        None => {
                            // push: next integer key
                            let len = match env.get(root) {
                                Some(Value::Array(m)) => m.len(),
                                _ => 0,
                            };
                            len.to_string()
                        }
                    };
                    let entry = env
                        .entry(root.to_string())
                        .or_insert_with(|| Value::Array(BTreeMap::new()));
                    if let Value::Array(map) = entry {
                        map.insert(key, value);
                    } else {
                        let mut m = BTreeMap::new();
                        m.insert(key, value);
                        *entry = Value::Array(m);
                    }
                }
            }
            ExprKind::Prop { base, name } => {
                if let Some(root) = base.root_var() {
                    env.insert(format!("{root}->{name}"), value);
                }
            }
            ExprKind::StaticProp { class, name } => {
                env.insert(format!("{class}::${name}"), value);
            }
            ExprKind::List(items) => {
                if let Value::Array(map) = value {
                    for (i, item) in items.iter().enumerate() {
                        if let Some(t) = item {
                            let v = map.get(&i.to_string()).cloned().unwrap_or(Value::Null);
                            self.assign(env, t, v);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn is_superglobal(&self, name: &str) -> bool {
        matches!(
            name,
            "_GET" | "_POST" | "_COOKIE" | "_REQUEST" | "_FILES" | "_SERVER" | "_ENV"
        )
    }

    fn log_if_sink(
        &mut self,
        name: &str,
        receiver: Option<&str>,
        argv: &[Value],
        line: u32,
    ) -> bool {
        let is_sink = self.catalog.sinks().any(|s| match &s.kind {
            SinkKind::Function(f) => receiver.is_none() && f.eq_ignore_ascii_case(name),
            SinkKind::Method {
                receiver_hint,
                name: m,
            } => {
                receiver.is_some()
                    && m.eq_ignore_ascii_case(name)
                    && match (receiver_hint, receiver) {
                        (None, _) => true,
                        (Some(h), Some(r)) => h.eq_ignore_ascii_case(r),
                        _ => false,
                    }
            }
            _ => false,
        });
        if is_sink {
            let display = match receiver {
                Some(r) => format!("${r}->{name}"),
                None => name.to_string(),
            };
            self.sinks.push(SinkEvent {
                sink: display,
                line,
                args: argv.iter().map(render_deep).collect(),
            });
        }
        is_sink
    }

    fn call_method(
        &mut self,
        env: &mut Env,
        receiver: Option<&str>,
        method: &str,
        argv: Vec<Value>,
        line: u32,
    ) -> Value {
        if self.log_if_sink(method, receiver, &argv, line) {
            return Value::Bool(false);
        }
        match method.to_ascii_lowercase().as_str() {
            // $wpdb->prepare: sprintf-style with escaping
            "prepare" => {
                let fmt = argv.first().map(Value::to_php_string).unwrap_or_default();
                Value::Str(php_prepare(&fmt, &argv[1..]))
            }
            "escape" | "real_escape_string" => Value::Str(mysql_escape(
                &argv.first().map(Value::to_php_string).unwrap_or_default(),
            )),
            "fetch_assoc" | "fetch_array" | "fetch_row" | "fetch_object" => Value::Bool(false),
            _ => {
                // user-defined method by name
                if self.functions.contains_key(&method.to_ascii_lowercase()) {
                    return self.call_user(env, method, argv);
                }
                let _ = env;
                Value::Null
            }
        }
    }

    fn call_user(&mut self, _env: &mut Env, name: &str, argv: Vec<Value>) -> Value {
        if self.depth >= MAX_DEPTH {
            return Value::Null;
        }
        let Some(func) = self.functions.get(&name.to_ascii_lowercase()).cloned() else {
            return Value::Null;
        };
        self.depth += 1;
        let mut local: Env = BTreeMap::new();
        for (i, p) in func.params.iter().enumerate() {
            let v = argv.get(i).cloned().or_else(|| {
                p.default.as_ref().map(|d| {
                    let mut empty = BTreeMap::new();
                    self.eval(&mut empty, d)
                })
            });
            local.insert(p.name.to_string(), v.unwrap_or(Value::Null));
        }
        let out = match self.exec_block(&mut local, &func.body) {
            Flow::Return(v) => v,
            _ => Value::Null,
        };
        self.depth -= 1;
        out
    }

    fn call_function(&mut self, env: &mut Env, name: &str, argv: Vec<Value>, line: u32) -> Value {
        if self.log_if_sink(name, None, &argv, line) {
            // queries return a falsy result handle so fetch loops end
            return Value::Bool(false);
        }
        if let Some(v) = crate::builtins::call(name, &argv) {
            return v;
        }
        if self.functions.contains_key(&name.to_ascii_lowercase()) {
            return self.call_user(env, name, argv);
        }
        Value::Null
    }
}

/// Renders a value for sink logs, expanding arrays recursively so
/// payloads inside array arguments (NoSQL filters) stay visible.
fn render_deep(v: &Value) -> String {
    match v {
        Value::Array(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{k}: {}", render_deep(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        other => other.to_php_string(),
    }
}

/// `mysql_real_escape_string` semantics.
pub fn mysql_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\'' => out.push_str("\\'"),
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            other => out.push(other),
        }
    }
    out
}

/// `$wpdb->prepare` semantics: `%d` → int, `%s` → escaped + quoted.
pub fn php_prepare(fmt: &str, args: &[Value]) -> String {
    let mut out = String::new();
    let mut ai = 0usize;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('d') => {
                out.push_str(
                    &args
                        .get(ai)
                        .map(|v| v.to_php_int())
                        .unwrap_or(0)
                        .to_string(),
                );
                ai += 1;
            }
            Some('s') => {
                out.push('\'');
                out.push_str(&mysql_escape(
                    &args.get(ai).map(Value::to_php_string).unwrap_or_default(),
                ));
                out.push('\'');
                ai += 1;
            }
            Some('%') => out.push('%'),
            Some(other) => {
                out.push('%');
                out.push(other);
            }
            None => out.push('%'),
        }
    }
    out
}
