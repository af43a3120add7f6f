//! Generic AST traversal.
//!
//! [`Visitor`] is the Rust analogue of the ANTLR *tree walkers* the paper's
//! detectors are built on: implement the `visit_*` hooks you care about and
//! call the `walk_*` helpers to continue into children. The default
//! implementation of every hook walks the whole tree.

use crate::ast::*;

/// An immutable AST visitor.
///
/// Override the hooks you need; call the corresponding `walk_*` function to
/// descend into children (the default implementations do this for you).
///
/// # Examples
///
/// ```
/// use wap_php::{parse, visitor::{Visitor, walk_expr}, ast::{Expr, ExprKind}};
///
/// struct CallCounter(usize);
/// impl Visitor for CallCounter {
///     fn visit_expr(&mut self, e: &Expr) {
///         if matches!(e.kind, ExprKind::Call { .. }) {
///             self.0 += 1;
///         }
///         walk_expr(self, e);
///     }
/// }
///
/// let program = parse("<?php f(g($x), h());")?;
/// let mut counter = CallCounter(0);
/// counter.visit_program(&program);
/// assert_eq!(counter.0, 3);
/// # Ok::<(), wap_php::ParseError>(())
/// ```
pub trait Visitor {
    /// Visits a whole program.
    fn visit_program(&mut self, p: &Program) {
        walk_program(self, p);
    }

    /// Visits one statement.
    fn visit_stmt(&mut self, s: &Stmt) {
        walk_stmt(self, s);
    }

    /// Visits one expression.
    fn visit_expr(&mut self, e: &Expr) {
        walk_expr(self, e);
    }

    /// Visits a function or method declaration.
    fn visit_function(&mut self, f: &Function) {
        walk_function(self, f);
    }

    /// Visits a class declaration.
    fn visit_class(&mut self, c: &Class) {
        walk_class(self, c);
    }
}

/// Walks all statements of a program.
pub fn walk_program<V: Visitor + ?Sized>(v: &mut V, p: &Program) {
    for s in &p.stmts {
        v.visit_stmt(s);
    }
}

/// Walks the children of one statement.
pub fn walk_stmt<V: Visitor + ?Sized>(v: &mut V, s: &Stmt) {
    match &s.kind {
        StmtKind::Expr(e) | StmtKind::Throw(e) => v.visit_expr(e),
        StmtKind::Echo(es) | StmtKind::Unset(es) => {
            for e in es {
                v.visit_expr(e);
            }
        }
        StmtKind::InlineHtml(_)
        | StmtKind::Break(_)
        | StmtKind::Continue(_)
        | StmtKind::Global(_)
        | StmtKind::Nop => {}
        StmtKind::If {
            cond,
            then_branch,
            elseifs,
            else_branch,
        } => {
            v.visit_expr(cond);
            for st in then_branch {
                v.visit_stmt(st);
            }
            for (c, b) in elseifs {
                v.visit_expr(c);
                for st in b {
                    v.visit_stmt(st);
                }
            }
            if let Some(b) = else_branch {
                for st in b {
                    v.visit_stmt(st);
                }
            }
        }
        StmtKind::While { cond, body } => {
            v.visit_expr(cond);
            for st in body {
                v.visit_stmt(st);
            }
        }
        StmtKind::DoWhile { body, cond } => {
            for st in body {
                v.visit_stmt(st);
            }
            v.visit_expr(cond);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            for e in init.iter().chain(cond).chain(step) {
                v.visit_expr(e);
            }
            for st in body {
                v.visit_stmt(st);
            }
        }
        StmtKind::Foreach {
            array,
            key,
            value,
            body,
            ..
        } => {
            v.visit_expr(array);
            if let Some(k) = key {
                v.visit_expr(k);
            }
            v.visit_expr(value);
            for st in body {
                v.visit_stmt(st);
            }
        }
        StmtKind::Switch { subject, cases } => {
            v.visit_expr(subject);
            for c in cases {
                if let Some(t) = &c.test {
                    v.visit_expr(t);
                }
                for st in &c.body {
                    v.visit_stmt(st);
                }
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                v.visit_expr(e);
            }
        }
        StmtKind::StaticVars(vars) => {
            for (_, d) in vars {
                if let Some(d) = d {
                    v.visit_expr(d);
                }
            }
        }
        StmtKind::Function(f) => v.visit_function(f),
        StmtKind::Class(c) => v.visit_class(c),
        StmtKind::Include { path, .. } => v.visit_expr(path),
        StmtKind::Block(b) => {
            for st in b {
                v.visit_stmt(st);
            }
        }
        StmtKind::Try {
            body,
            catches,
            finally,
        } => {
            for st in body {
                v.visit_stmt(st);
            }
            for c in catches {
                for st in &c.body {
                    v.visit_stmt(st);
                }
            }
            if let Some(f) = finally {
                for st in f {
                    v.visit_stmt(st);
                }
            }
        }
    }
}

/// Walks the children of one expression.
pub fn walk_expr<V: Visitor + ?Sized>(v: &mut V, e: &Expr) {
    match &e.kind {
        ExprKind::Var(_)
        | ExprKind::Lit(_)
        | ExprKind::Name(_)
        | ExprKind::StaticProp { .. }
        | ExprKind::ClassConst { .. } => {}
        ExprKind::Interp(parts) | ExprKind::ShellExec(parts) => {
            for p in parts {
                v.visit_expr(p);
            }
        }
        ExprKind::ArrayDim { base, index } => {
            v.visit_expr(base);
            if let Some(i) = index {
                v.visit_expr(i);
            }
        }
        ExprKind::Prop { base, .. } => v.visit_expr(base),
        ExprKind::Call { callee, args } => {
            v.visit_expr(callee);
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::MethodCall { target, args, .. } => {
            v.visit_expr(target);
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::StaticCall { args, .. } | ExprKind::New { args, .. } => {
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::Assign { target, value, .. } => {
            v.visit_expr(target);
            v.visit_expr(value);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            v.visit_expr(lhs);
            v.visit_expr(rhs);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::ErrorSuppress(expr)
        | ExprKind::Print(expr)
        | ExprKind::Clone(expr)
        | ExprKind::Empty(expr) => v.visit_expr(expr),
        ExprKind::IncDec { target, .. } => v.visit_expr(target),
        ExprKind::Ternary {
            cond,
            then,
            otherwise,
        } => {
            v.visit_expr(cond);
            if let Some(t) = then {
                v.visit_expr(t);
            }
            v.visit_expr(otherwise);
        }
        ExprKind::Isset(es) => {
            for e in es {
                v.visit_expr(e);
            }
        }
        ExprKind::Array(items) => {
            for it in items {
                if let Some(k) = &it.key {
                    v.visit_expr(k);
                }
                v.visit_expr(&it.value);
            }
        }
        ExprKind::List(items) => {
            for it in items.iter().flatten() {
                v.visit_expr(it);
            }
        }
        ExprKind::Closure(c) => {
            for p in &c.params {
                if let Some(d) = &p.default {
                    v.visit_expr(d);
                }
            }
            for st in &c.body {
                v.visit_stmt(st);
            }
        }
        ExprKind::Exit(arg) => {
            if let Some(a) = arg {
                v.visit_expr(a);
            }
        }
        ExprKind::InstanceOf { expr, .. } => v.visit_expr(expr),
        ExprKind::IncludeExpr { path, .. } => v.visit_expr(path),
    }
}

/// Walks a function's parameter defaults and body.
pub fn walk_function<V: Visitor + ?Sized>(v: &mut V, f: &Function) {
    for p in &f.params {
        if let Some(d) = &p.default {
            v.visit_expr(d);
        }
    }
    for st in &f.body {
        v.visit_stmt(st);
    }
}

/// Walks a class's member initializers and method bodies.
pub fn walk_class<V: Visitor + ?Sized>(v: &mut V, c: &Class) {
    for m in &c.members {
        match m {
            ClassMember::Property {
                default: Some(d), ..
            } => v.visit_expr(d),
            ClassMember::Property { .. } => {}
            ClassMember::Const { value, .. } => v.visit_expr(value),
            ClassMember::Method { func, .. } => v.visit_function(func),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    struct Counter {
        vars: usize,
        calls: usize,
        stmts: usize,
    }

    impl Visitor for Counter {
        fn visit_stmt(&mut self, s: &Stmt) {
            self.stmts += 1;
            walk_stmt(self, s);
        }
        fn visit_expr(&mut self, e: &Expr) {
            match e.kind {
                ExprKind::Var(_) => self.vars += 1,
                ExprKind::Call { .. } => self.calls += 1,
                _ => {}
            }
            walk_expr(self, e);
        }
    }

    #[test]
    fn visitor_reaches_nested_contexts() {
        let p = parse(
            "<?php
            function f($a) { if ($a) { g($a); } }
            class C { function m() { return h($this->x); } }
            $cb = function () use ($q) { return i($q); };
            foreach ($xs as $x) { echo j($x); }
            ",
        )
        .unwrap();
        let mut c = Counter {
            vars: 0,
            calls: 0,
            stmts: 0,
        };
        c.visit_program(&p);
        assert_eq!(c.calls, 4);
        assert!(c.vars >= 6);
        assert!(c.stmts >= 7);
    }

    #[test]
    fn visitor_sees_interp_parts() {
        let p = parse(r#"<?php $q = "SELECT $a FROM $b";"#).unwrap();
        let mut c = Counter {
            vars: 0,
            calls: 0,
            stmts: 0,
        };
        c.visit_program(&p);
        // $q target + $a + $b
        assert_eq!(c.vars, 3);
    }

    #[test]
    fn visitor_sees_switch_and_try() {
        let p = parse(
            "<?php
            switch ($m) { case 'a': f($x); break; default: g($y); }
            try { h($z); } catch (E $e) { i($e); } finally { j($w); }
            ",
        )
        .unwrap();
        let mut c = Counter {
            vars: 0,
            calls: 0,
            stmts: 0,
        };
        c.visit_program(&p);
        assert_eq!(c.calls, 5);
    }
}
