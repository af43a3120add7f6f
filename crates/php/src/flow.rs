//! One abstract statement walker for every AST-level analysis.
//!
//! Taint analysis (`wap-taint`) and value analysis (`wap-cfg`'s `values`)
//! are both abstract interpreters over this crate's AST. What they must
//! agree on — which statements execute, in what order, how the
//! environments of alternative paths join, and how often a loop body
//! runs — lives in [`AbstractWalk::exec_stmt`] and nowhere else. Each
//! analysis supplies a [`Lattice`], an expression evaluator
//! ([`AbstractWalk::eval`]) and a few hooks.
//!
//! Branches run each arm on a copy of the environment and [`join_envs`]
//! the results, including the fall-through path of an `if` without `else`
//! and the no-case path of a `switch`; `finally` runs once, after the
//! catch join. `break`, `continue` and `throw` do not cut paths.

use crate::ast::{Closure, Expr, Stmt, StmtKind};
use crate::{Span, Symbol};
use std::collections::HashMap;

/// How many times the walker executes every loop body, joining each pass
/// into the loop-entry environment.
///
/// This is a bound, not a fixpoint. A fact that needs `k` trips around
/// the loop to reach a variable arrives only when `k <= LOOP_PASSES`:
/// in
///
/// ```php
/// $a = ''; $b = ''; $c = '';
/// while (rand()) { $c = $b; $b = $a; $a = $_GET['x']; }
/// echo $c;
/// ```
///
/// the taint reaches `$c` on the third trip, so the `echo` is not
/// reported, while the two-variable version of the same loop is. Closing
/// the gap needs a solver that iterates to a fixpoint.
pub const LOOP_PASSES: usize = 2;

/// A loop nested inside more than this many enclosing loops runs its body
/// once instead of [`LOOP_PASSES`] times.
///
/// Every nesting level multiplies the work under it by `LOOP_PASSES`, so
/// without this bound `n` nested loops cost `2^n` walks of the innermost
/// body: a 368-byte file of 22 nested `while` loops took 27.8 s to scan.
/// With it, no body is walked more than `LOOP_PASSES^(MAX_LOOP_NEST + 1)`
/// times per walk of its outermost loop. Like `LOOP_PASSES` it is a
/// bound, not a fixpoint: a flow that needs a second trip through a loop
/// this deep is missed.
pub const MAX_LOOP_NEST: usize = 4;

/// The value domain of an abstract interpretation.
pub trait Lattice: Clone {
    /// Least upper bound of two values.
    fn join(&self, other: &Self) -> Self;

    /// The value of a binding the analysis does not model: a `global`, a
    /// caught exception, an uninitialised `static`, a closure.
    fn opaque() -> Self;
}

/// A variable environment: variable (or synthetic key) → abstract value.
///
/// Hash, not BTree: `Symbol` orders by *string* (determinism contract),
/// so a `BTreeMap` pays a string comparison per tree level on every
/// variable read and write in the hot evaluation loops. Map iteration
/// order never reaches output: [`join_envs`]' per-key fold is
/// order-independent, and anything that renders an environment sorts it.
pub type Env<V> = HashMap<Symbol, V>;

/// Joins alternative-path environments key by key. A key bound in only
/// some of the environments keeps its value from those.
pub fn join_envs<V: Lattice>(mut envs: Vec<Env<V>>) -> Env<V> {
    let mut out = envs.pop().unwrap_or_default();
    for env in envs {
        for (k, v) in env {
            let joined = match out.get(&k) {
                Some(existing) => existing.join(&v),
                None => v,
            };
            out.insert(k, joined);
        }
    }
    out
}

/// An abstract interpreter over AST statements. Implementors supply the
/// expression semantics and hooks; the provided [`exec_block`] and
/// [`exec_stmt`] own all control flow.
///
/// [`exec_block`]: AbstractWalk::exec_block
/// [`exec_stmt`]: AbstractWalk::exec_stmt
pub trait AbstractWalk<'a> {
    /// The analysis lattice.
    type Value: Lattice;

    /// Evaluates an expression, applying its side effects to `env`.
    fn eval(&mut self, env: &mut Env<Self::Value>, expr: &'a Expr) -> Self::Value;

    /// Binds a `foreach` key and value, given the iterated array's value.
    /// `span` is the whole `foreach` statement.
    fn bind_foreach(
        &mut self,
        env: &mut Env<Self::Value>,
        array: Self::Value,
        key: Option<&'a Expr>,
        value: &'a Expr,
        span: Span,
    );

    /// Executes an `include`/`require` whose path expression is `path`.
    /// `span` is the whole statement or include expression.
    fn exec_include(&mut self, env: &mut Env<Self::Value>, path: &'a Expr, span: Span);

    /// Observes the environment on entry to every statement.
    fn before_stmt(&mut self, _env: &Env<Self::Value>, _stmt: &'a Stmt) {}

    /// Observes one evaluated `echo` item. `span` is the whole statement.
    fn echo(&mut self, _item: &'a Expr, _value: &Self::Value, _span: Span) {}

    /// Observes the value of a `return` with an operand.
    fn returned(&mut self, _value: Self::Value) {}

    /// How many loops enclose the statement being walked. The walker keeps
    /// the count; implementors store it, starting at 0, and reset it
    /// around any walk that must not depend on where it was started from.
    fn loop_nest(&mut self) -> &mut usize;

    /// Runs a loop: `pass` (one trip through the condition and body) runs
    /// [`LOOP_PASSES`] times, or once inside more than [`MAX_LOOP_NEST`]
    /// enclosing loops.
    fn run_loop(
        &mut self,
        env: &mut Env<Self::Value>,
        pass: impl Fn(&mut Self, &mut Env<Self::Value>),
    ) {
        let nest = *self.loop_nest();
        let passes = if nest > MAX_LOOP_NEST { 1 } else { LOOP_PASSES };
        *self.loop_nest() = nest + 1;
        for _ in 0..passes {
            pass(self, env);
        }
        *self.loop_nest() = nest;
    }

    /// Executes statements in order.
    fn exec_block(&mut self, env: &mut Env<Self::Value>, stmts: &'a [Stmt]) {
        for s in stmts {
            self.exec_stmt(env, s);
        }
    }

    /// Executes one statement: the one place that decides branch joins,
    /// loop re-execution and the order in which sub-expressions run.
    fn exec_stmt(&mut self, env: &mut Env<Self::Value>, stmt: &'a Stmt) {
        self.before_stmt(env, stmt);
        match &stmt.kind {
            StmtKind::Expr(e) | StmtKind::Throw(e) => {
                self.eval(env, e);
            }
            StmtKind::Echo(items) => {
                for e in items {
                    let v = self.eval(env, e);
                    self.echo(e, &v, stmt.span);
                }
            }
            StmtKind::InlineHtml(_) | StmtKind::Nop => {}
            StmtKind::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
            } => {
                self.eval(env, cond);
                let mut branches = Vec::new();
                let mut b1 = env.clone();
                self.exec_block(&mut b1, then_branch);
                branches.push(b1);
                for (c, b) in elseifs {
                    self.eval(env, c);
                    let mut bi = env.clone();
                    self.exec_block(&mut bi, b);
                    branches.push(bi);
                }
                match else_branch {
                    Some(b) => {
                        let mut be = env.clone();
                        self.exec_block(&mut be, b);
                        branches.push(be);
                    }
                    None => branches.push(env.clone()), // fall-through path
                }
                *env = join_envs(branches);
            }
            StmtKind::While { cond, body } => self.run_loop(env, |w, env| {
                w.eval(env, cond);
                let mut b = env.clone();
                w.exec_block(&mut b, body);
                *env = join_envs(vec![env.clone(), b]);
            }),
            StmtKind::DoWhile { body, cond } => self.run_loop(env, |w, env| {
                let mut b = env.clone();
                w.exec_block(&mut b, body);
                *env = join_envs(vec![env.clone(), b]);
                w.eval(env, cond);
            }),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                for e in init {
                    self.eval(env, e);
                }
                self.run_loop(env, |w, env| {
                    for e in cond {
                        w.eval(env, e);
                    }
                    let mut b = env.clone();
                    w.exec_block(&mut b, body);
                    for e in step {
                        w.eval(&mut b, e);
                    }
                    *env = join_envs(vec![env.clone(), b]);
                });
            }
            StmtKind::Foreach {
                array,
                key,
                value,
                body,
                ..
            } => {
                let arr = self.eval(env, array);
                self.bind_foreach(env, arr, key.as_deref(), value, stmt.span);
                self.run_loop(env, |w, env| {
                    let mut b = env.clone();
                    w.exec_block(&mut b, body);
                    *env = join_envs(vec![env.clone(), b]);
                });
            }
            StmtKind::Switch { subject, cases } => {
                self.eval(env, subject);
                // the path where no case matches
                let mut branches = vec![env.clone()];
                for c in cases {
                    if let Some(t) = &c.test {
                        self.eval(env, t);
                    }
                    let mut b = env.clone();
                    self.exec_block(&mut b, &c.body);
                    branches.push(b);
                }
                *env = join_envs(branches);
            }
            StmtKind::Break(_) | StmtKind::Continue(_) => {}
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(env, e);
                    self.returned(v);
                }
            }
            StmtKind::Global(names) => {
                for n in names {
                    env.insert(*n, Self::Value::opaque());
                }
            }
            StmtKind::StaticVars(vars) => {
                for (n, d) in vars {
                    let v = match d {
                        Some(e) => self.eval(env, e),
                        None => Self::Value::opaque(),
                    };
                    env.insert(*n, v);
                }
            }
            // each analysis summarizes declarations itself
            StmtKind::Function(_) | StmtKind::Class(_) => {}
            StmtKind::Include { path, .. } => self.exec_include(env, path, stmt.span),
            StmtKind::Unset(targets) => {
                for t in targets {
                    if let Some(root) = t.root_var_symbol() {
                        env.remove(&root);
                    }
                }
            }
            StmtKind::Block(b) => self.exec_block(env, b),
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                self.exec_block(env, body);
                let mut branches = vec![env.clone()];
                for c in catches {
                    let mut b = env.clone();
                    if let Some(v) = c.var {
                        b.insert(v, Self::Value::opaque());
                    }
                    self.exec_block(&mut b, &c.body);
                    branches.push(b);
                }
                *env = join_envs(branches);
                if let Some(f) = finally {
                    self.exec_block(env, f);
                }
            }
        }
    }

    /// Evaluates a closure expression: its body runs once, in a fresh
    /// environment holding only the captured `use` variables that are
    /// bound here. The closure value itself is opaque.
    fn eval_closure(&mut self, env: &Env<Self::Value>, closure: &'a Closure) -> Self::Value {
        let mut inner = Env::new();
        for (name, _) in &closure.uses {
            if let Some(v) = env.get(name) {
                inner.insert(*name, v.clone());
            }
        }
        self.exec_block(&mut inner, &closure.body);
        Self::Value::opaque()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ExprKind, Lit};
    use crate::parse;

    /// A set of integer facts, one bit each; bit 31 marks opaque.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Bits(u32);

    const OPAQUE: Bits = Bits(1 << 31);

    impl Lattice for Bits {
        fn join(&self, other: &Self) -> Self {
            Bits(self.0 | other.0)
        }
        fn opaque() -> Self {
            OPAQUE
        }
    }

    /// A toy analysis: integer literal `n` is fact bit `n`, `$x = e`
    /// binds, `.` joins, and every call is logged by name.
    #[derive(Default)]
    struct Toy {
        calls: Vec<String>,
        echoes: Vec<Bits>,
        loop_nest: usize,
    }

    impl<'a> AbstractWalk<'a> for Toy {
        type Value = Bits;

        fn eval(&mut self, env: &mut Env<Bits>, expr: &'a Expr) -> Bits {
            match &expr.kind {
                ExprKind::Var(n) => env.get(n).copied().unwrap_or(Bits(0)),
                ExprKind::Lit(Lit::Int(n)) => Bits(1 << n),
                ExprKind::Assign { target, value, .. } => {
                    let v = self.eval(env, value);
                    if let ExprKind::Var(n) = &target.kind {
                        env.insert(*n, v);
                    }
                    v
                }
                ExprKind::Binary { lhs, rhs, .. } => {
                    let l = self.eval(env, lhs);
                    l.join(&self.eval(env, rhs))
                }
                ExprKind::Call { callee, .. } => {
                    if let ExprKind::Name(n) = &callee.kind {
                        self.calls.push(n.to_string());
                    }
                    Bits(0)
                }
                ExprKind::Closure(c) => self.eval_closure(env, c),
                _ => Bits(0),
            }
        }

        fn bind_foreach(
            &mut self,
            env: &mut Env<Bits>,
            array: Bits,
            _key: Option<&'a Expr>,
            value: &'a Expr,
            _span: Span,
        ) {
            if let ExprKind::Var(n) = &value.kind {
                env.insert(*n, array);
            }
        }

        fn exec_include(&mut self, env: &mut Env<Bits>, path: &'a Expr, _span: Span) {
            self.eval(env, path);
        }

        fn echo(&mut self, _item: &'a Expr, value: &Bits, _span: Span) {
            self.echoes.push(*value);
        }

        fn loop_nest(&mut self) -> &mut usize {
            &mut self.loop_nest
        }
    }

    fn run(src: &str) -> Toy {
        let program = parse(src).expect("parses");
        let mut toy = Toy::default();
        toy.exec_block(&mut Env::new(), &program.stmts);
        toy
    }

    fn bits(facts: &[u32]) -> Bits {
        Bits(facts.iter().map(|f| 1 << f).sum())
    }

    #[test]
    fn if_without_else_joins_the_fall_through_path() {
        let t = run("<?php $a = 1; if (c()) { $a = 2; } echo $a;");
        assert_eq!(t.echoes, [bits(&[1, 2])]);
        let t = run("<?php $a = 1; if (c()) { $a = 2; } else { $a = 3; } echo $a;");
        assert_eq!(t.echoes, [bits(&[2, 3])]);
        let t = run("<?php $a = 1; if (c()) { $a = 2; } elseif (d()) { $a = 3; } echo $a;");
        assert_eq!(t.echoes, [bits(&[1, 2, 3])]);
    }

    #[test]
    fn loops_run_their_body_loop_passes_times() {
        let passes = |calls: &[&'static str]| calls.repeat(LOOP_PASSES);
        for (src, expected) in [
            ("<?php while (c()) { b(); }", passes(&["c", "b"])),
            ("<?php do { b(); } while (c());", passes(&["b", "c"])),
            (
                "<?php foreach (a() as $x) { b(); }",
                [vec!["a"], passes(&["b"])].concat(),
            ),
            (
                "<?php for (i(); c(); s()) { b(); }",
                [vec!["i"], passes(&["c", "b", "s"])].concat(),
            ),
        ] {
            assert_eq!(run(src).calls, expected, "{src}");
        }
    }

    #[test]
    fn loop_passes_is_a_bound_not_a_fixpoint() {
        // two trips carry fact 5 from $a into $b ...
        let t = run("<?php $b = 0; while (c()) { $b = $a; $a = 5; } echo $b;");
        assert_eq!(t.echoes, [bits(&[0, 5])]);
        // ... but never a third hop on into $c
        let t = run("<?php $c = 0; while (c()) { $c = $b; $b = $a; $a = 5; } echo $c;");
        assert_eq!(t.echoes, [bits(&[0])]);
    }

    #[test]
    fn switch_joins_the_no_case_path() {
        let t =
            run("<?php $a = 1; switch ($x) { case 7: $a = 2; break; default: $a = 3; } echo $a;");
        assert_eq!(t.echoes, [bits(&[1, 2, 3])]);
        let t = run("<?php $a = 1; switch ($x) {} echo $a;");
        assert_eq!(t.echoes, [bits(&[1])]);
    }

    #[test]
    fn unmodelled_bindings_are_opaque() {
        let t = run("<?php $e = 1; try { t(); } catch (Exception $e) { echo $e; } echo $e;");
        assert_eq!(t.echoes, [OPAQUE, Bits(OPAQUE.0 | 1 << 1)]);
        let t = run("<?php $g = 1; function f() {} global $g; echo $g;");
        assert_eq!(t.echoes, [OPAQUE]);
        let t = run("<?php static $s, $t = 4; echo $s; echo $t;");
        assert_eq!(t.echoes, [OPAQUE, bits(&[4])]);
        let t = run("<?php $k = 2; $f = function () use ($k) { echo $k; }; echo $f;");
        assert_eq!(t.echoes, [bits(&[2]), OPAQUE]);
    }

    #[test]
    fn finally_runs_once_after_the_catch_join() {
        let t = run(
            "<?php $a = 1; try { $a = 2; } catch (A $e) { $a = 3; } catch (B $e) { $a = 4; } \
             finally { echo $a; }",
        );
        assert_eq!(t.echoes, [bits(&[2, 3, 4])]);
    }

    /// Loops inside at most `MAX_LOOP_NEST` enclosing loops run
    /// `LOOP_PASSES` times; deeper ones run once, so the innermost body of
    /// any nest is walked at most `2^(MAX_LOOP_NEST + 1)` times.
    #[test]
    fn loops_past_the_nesting_bound_run_once() {
        let nest = |n: usize, kw: &str| {
            let (open, close) = match kw {
                "while" => ("while (0) {", "}"),
                "for" => ("for (;;) {", "}"),
                "foreach" => ("foreach ($a as $v) {", "}"),
                _ => ("do {", "} while (0);"),
            };
            format!("<?php {} c(); {} d();", open.repeat(n), close.repeat(n))
        };
        let bound = LOOP_PASSES.pow(MAX_LOOP_NEST as u32 + 1);
        for kw in ["while", "for", "foreach", "do"] {
            for (n, walks) in [
                (1, 2),
                (MAX_LOOP_NEST, bound / 2),
                (MAX_LOOP_NEST + 1, bound),
                (MAX_LOOP_NEST + 2, bound),
                (64, bound),
            ] {
                let t = run(&nest(n, kw));
                let inner = t.calls.iter().filter(|c| *c == "c").count();
                assert_eq!(inner, walks, "{kw} nested {n} deep");
                // the count unwinds: code after the nest is walked once
                assert_eq!(t.calls.last().map(String::as_str), Some("d"));
                assert_eq!(t.loop_nest, 0);
            }
        }
    }
}
