//! AST-to-source printer.
//!
//! Emits valid PHP that re-parses to the same AST (modulo spans). The
//! printer is deliberately conservative: nested compound expressions are
//! parenthesized so that operator precedence never has to be re-derived,
//! which makes `print ∘ parse ∘ print` a fixpoint — the property the fixer
//! relies on when it rewrites files.

use crate::ast::*;
use std::fmt::Write as _;

/// Prints a whole program as PHP source.
///
/// The output always starts with `<?php`; inline HTML chunks are emitted
/// between `?>` and `<?php` markers exactly as the parser understood them.
///
/// # Examples
///
/// ```
/// use wap_php::{parse, print_program};
/// let p = parse("<?php $x = 1 + 2;")?;
/// let src = print_program(&p);
/// // printing is a fixpoint: parse(print(p)) prints identically
/// assert_eq!(src, print_program(&parse(&src)?));
/// # Ok::<(), wap_php::ParseError>(())
/// ```
pub fn print_program(p: &Program) -> String {
    let mut pr = Printer::new();
    pr.out.push_str("<?php\n");
    for s in &p.stmts {
        pr.stmt(s);
    }
    if !pr.in_php {
        pr.out.push_str("<?php\n");
    }
    pr.out
}

/// Prints a single expression as PHP source (no trailing semicolon).
pub fn print_expr(e: &Expr) -> String {
    let mut pr = Printer::new();
    pr.expr(e);
    pr.out
}

/// Prints a single statement as PHP source.
pub fn print_stmt(s: &Stmt) -> String {
    let mut pr = Printer::new();
    pr.stmt(s);
    pr.out
}

struct Printer {
    out: String,
    indent: usize,
    in_php: bool,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
            in_php: true,
        }
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn ensure_php(&mut self) {
        if !self.in_php {
            self.out.push_str("<?php\n");
            self.in_php = true;
        }
    }

    fn line(&mut self, text: &str) {
        self.pad();
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::InlineHtml(h) => {
                if self.in_php {
                    self.out.push_str("?>");
                    self.in_php = false;
                }
                self.out.push_str(h);
            }
            other => {
                self.ensure_php();
                self.stmt_php(other);
            }
        }
    }

    fn stmt_php(&mut self, kind: &StmtKind) {
        match kind {
            StmtKind::InlineHtml(_) => unreachable!("handled by stmt"),
            StmtKind::Nop => self.line(";"),
            StmtKind::Expr(e) => {
                self.pad();
                self.expr(e);
                self.out.push_str(";\n");
            }
            StmtKind::Echo(items) => {
                self.pad();
                self.out.push_str("echo ");
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            StmtKind::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
            } => {
                self.pad();
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push_str(") {\n");
                self.block(then_branch);
                self.pad();
                self.out.push('}');
                for (c, b) in elseifs {
                    self.out.push_str(" elseif (");
                    self.expr(c);
                    self.out.push_str(") {\n");
                    self.block(b);
                    self.pad();
                    self.out.push('}');
                }
                if let Some(b) = else_branch {
                    self.out.push_str(" else {\n");
                    self.block(b);
                    self.pad();
                    self.out.push('}');
                }
                self.out.push('\n');
            }
            StmtKind::While { cond, body } => {
                self.pad();
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(") {\n");
                self.block(body);
                self.line("}");
            }
            StmtKind::DoWhile { body, cond } => {
                self.line("do {");
                self.block(body);
                self.pad();
                self.out.push_str("} while (");
                self.expr(cond);
                self.out.push_str(");\n");
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.pad();
                self.out.push_str("for (");
                self.expr_list(init);
                self.out.push_str("; ");
                self.expr_list(cond);
                self.out.push_str("; ");
                self.expr_list(step);
                self.out.push_str(") {\n");
                self.block(body);
                self.line("}");
            }
            StmtKind::Foreach {
                array,
                key,
                by_ref,
                value,
                body,
            } => {
                self.pad();
                self.out.push_str("foreach (");
                self.expr(array);
                self.out.push_str(" as ");
                if let Some(k) = key {
                    self.expr(k);
                    self.out.push_str(" => ");
                }
                if *by_ref {
                    self.out.push('&');
                }
                self.expr(value);
                self.out.push_str(") {\n");
                self.block(body);
                self.line("}");
            }
            StmtKind::Switch { subject, cases } => {
                self.pad();
                self.out.push_str("switch (");
                self.expr(subject);
                self.out.push_str(") {\n");
                self.indent += 1;
                for c in cases {
                    self.pad();
                    match &c.test {
                        Some(t) => {
                            self.out.push_str("case ");
                            self.expr(t);
                            self.out.push_str(":\n");
                        }
                        None => self.out.push_str("default:\n"),
                    }
                    self.block(&c.body);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Break(n) => match n {
                Some(v) => self.line(&format!("break {v};")),
                None => self.line("break;"),
            },
            StmtKind::Continue(n) => match n {
                Some(v) => self.line(&format!("continue {v};")),
                None => self.line("continue;"),
            },
            StmtKind::Return(e) => {
                self.pad();
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Global(names) => {
                let list: Vec<String> = names.iter().map(|n| format!("${n}")).collect();
                self.line(&format!("global {};", list.join(", ")));
            }
            StmtKind::StaticVars(vars) => {
                self.pad();
                self.out.push_str("static ");
                for (i, (name, default)) in vars.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    let _ = write!(self.out, "${name}");
                    if let Some(d) = default {
                        self.out.push_str(" = ");
                        self.expr(d);
                    }
                }
                self.out.push_str(";\n");
            }
            StmtKind::Function(f) => self.function(f, None),
            StmtKind::Class(c) => self.class(c),
            StmtKind::Include { kind, path } => {
                self.pad();
                self.out.push_str(kind.keyword());
                self.out.push(' ');
                self.expr(path);
                self.out.push_str(";\n");
            }
            StmtKind::Unset(targets) => {
                self.pad();
                self.out.push_str("unset(");
                self.expr_list(targets);
                self.out.push_str(");\n");
            }
            StmtKind::Block(b) => {
                self.line("{");
                self.block(b);
                self.line("}");
            }
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                self.line("try {");
                self.block(body);
                self.pad();
                self.out.push('}');
                for c in catches {
                    self.out.push_str(" catch (");
                    let types: Vec<&str> = c.types.iter().map(|t| t.as_str()).collect();
                    self.out.push_str(&types.join(" | "));
                    if let Some(v) = &c.var {
                        let _ = write!(self.out, " ${v}");
                    }
                    self.out.push_str(") {\n");
                    self.block(&c.body);
                    self.pad();
                    self.out.push('}');
                }
                if let Some(f) = finally {
                    self.out.push_str(" finally {\n");
                    self.block(f);
                    self.pad();
                    self.out.push('}');
                }
                self.out.push('\n');
            }
            StmtKind::Throw(e) => {
                self.pad();
                self.out.push_str("throw ");
                self.expr(e);
                self.out.push_str(";\n");
            }
        }
    }

    fn block(&mut self, stmts: &[Stmt]) {
        self.indent += 1;
        for s in stmts {
            self.stmt(s);
            self.ensure_php();
        }
        self.indent -= 1;
    }

    fn function(&mut self, f: &Function, modifiers: Option<&str>) {
        self.pad();
        if let Some(m) = modifiers {
            self.out.push_str(m);
            self.out.push(' ');
        }
        self.out.push_str("function ");
        if f.by_ref {
            self.out.push('&');
        }
        self.out.push_str(f.name.as_str());
        self.params(&f.params);
        self.out.push_str(" {\n");
        self.block(&f.body);
        self.line("}");
    }

    fn params(&mut self, params: &[Param]) {
        self.out.push('(');
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            if let Some(ty) = &p.ty {
                self.out.push_str(ty);
                self.out.push(' ');
            }
            if p.by_ref {
                self.out.push('&');
            }
            if p.variadic {
                self.out.push_str("...");
            }
            let _ = write!(self.out, "${}", p.name);
            if let Some(d) = &p.default {
                self.out.push_str(" = ");
                self.expr(d);
            }
        }
        self.out.push(')');
    }

    fn class(&mut self, c: &Class) {
        self.pad();
        self.out.push_str("class ");
        self.out.push_str(c.name.as_str());
        if let Some(p) = &c.parent {
            let _ = write!(self.out, " extends {p}");
        }
        if !c.interfaces.is_empty() {
            let names: Vec<&str> = c.interfaces.iter().map(|i| i.as_str()).collect();
            let _ = write!(self.out, " implements {}", names.join(", "));
        }
        self.out.push_str(" {\n");
        self.indent += 1;
        for m in &c.members {
            match m {
                ClassMember::Property {
                    name,
                    default,
                    visibility,
                    is_static,
                } => {
                    self.pad();
                    self.out.push_str(visibility_kw(*visibility));
                    if *is_static {
                        self.out.push_str(" static");
                    }
                    let _ = write!(self.out, " ${name}");
                    if let Some(d) = default {
                        self.out.push_str(" = ");
                        self.expr(d);
                    }
                    self.out.push_str(";\n");
                }
                ClassMember::Const { name, value } => {
                    self.pad();
                    let _ = write!(self.out, "const {name} = ");
                    self.expr(value);
                    self.out.push_str(";\n");
                }
                ClassMember::Method {
                    func,
                    visibility,
                    is_static,
                } => {
                    let mods = if *is_static {
                        format!("{} static", visibility_kw(*visibility))
                    } else {
                        visibility_kw(*visibility).to_string()
                    };
                    self.function(func, Some(&mods));
                }
            }
        }
        self.indent -= 1;
        self.line("}");
    }

    fn expr_list(&mut self, es: &[Expr]) {
        for (i, e) in es.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(e);
        }
    }

    /// Prints an expression, parenthesizing compound children.
    fn expr_paren(&mut self, e: &Expr) {
        if needs_parens(e) {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        } else {
            self.expr(e);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Var(n) => {
                let _ = write!(self.out, "${n}");
            }
            ExprKind::Lit(l) => self.lit(l),
            ExprKind::Name(n) => self.out.push_str(n.as_str()),
            ExprKind::Interp(parts) => self.interp(parts),
            ExprKind::ShellExec(parts) => {
                self.out.push('`');
                let save = std::mem::take(&mut self.out);
                self.interp(parts);
                let body = std::mem::replace(&mut self.out, save);
                // interp() wraps in double quotes; strip them for backticks
                let inner = body
                    .strip_prefix('"')
                    .and_then(|b| b.strip_suffix('"'))
                    .unwrap_or(&body);
                self.out.push_str(inner);
                self.out.push('`');
            }
            ExprKind::ArrayDim { base, index } => {
                self.expr_paren(base);
                self.out.push('[');
                if let Some(i) = index {
                    self.expr(i);
                }
                self.out.push(']');
            }
            ExprKind::Prop { base, name } => {
                self.expr_paren(base);
                let _ = write!(self.out, "->{name}");
            }
            ExprKind::StaticProp { class, name } => {
                let _ = write!(self.out, "{class}::${name}");
            }
            ExprKind::ClassConst { class, name } => {
                let _ = write!(self.out, "{class}::{name}");
            }
            ExprKind::Call { callee, args } => {
                self.expr_paren(callee);
                self.out.push('(');
                self.expr_list(args);
                self.out.push(')');
            }
            ExprKind::MethodCall {
                target,
                method,
                args,
            } => {
                self.expr_paren(target);
                let _ = write!(self.out, "->{method}(");
                self.expr_list(args);
                self.out.push(')');
            }
            ExprKind::StaticCall {
                class,
                method,
                args,
            } => {
                let _ = write!(self.out, "{class}::{method}(");
                self.expr_list(args);
                self.out.push(')');
            }
            ExprKind::New { class, args } => {
                let _ = write!(self.out, "new {class}(");
                self.expr_list(args);
                self.out.push(')');
            }
            ExprKind::Assign {
                target,
                op,
                value,
                by_ref,
            } => {
                self.expr_paren(target);
                let _ = write!(self.out, " {}", op.symbol());
                if *by_ref {
                    self.out.push('&');
                }
                self.out.push(' ');
                self.expr_paren(value);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr_paren(lhs);
                let _ = write!(self.out, " {} ", op.symbol());
                self.expr_paren(rhs);
            }
            ExprKind::Unary { op, expr } => {
                self.out.push_str(op.symbol());
                self.expr_paren(expr);
            }
            ExprKind::IncDec { pre, inc, target } => {
                let sym = if *inc { "++" } else { "--" };
                if *pre {
                    self.out.push_str(sym);
                    self.expr_paren(target);
                } else {
                    self.expr_paren(target);
                    self.out.push_str(sym);
                }
            }
            ExprKind::Ternary {
                cond,
                then,
                otherwise,
            } => {
                self.expr_paren(cond);
                match then {
                    Some(t) => {
                        self.out.push_str(" ? ");
                        self.expr_paren(t);
                        self.out.push_str(" : ");
                    }
                    None => self.out.push_str(" ?: "),
                }
                self.expr_paren(otherwise);
            }
            ExprKind::Cast { ty, expr } => {
                let _ = write!(self.out, "({})", ty.keyword());
                self.expr_paren(expr);
            }
            ExprKind::Isset(es) => {
                self.out.push_str("isset(");
                self.expr_list(es);
                self.out.push(')');
            }
            ExprKind::Empty(e) => {
                self.out.push_str("empty(");
                self.expr(e);
                self.out.push(')');
            }
            ExprKind::Array(items) => {
                self.out.push_str("array(");
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    if let Some(k) = &it.key {
                        self.expr(k);
                        self.out.push_str(" => ");
                    }
                    if it.by_ref {
                        self.out.push('&');
                    }
                    self.expr(&it.value);
                }
                self.out.push(')');
            }
            ExprKind::List(items) => {
                self.out.push_str("list(");
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    if let Some(e) = it {
                        self.expr(e);
                    }
                }
                self.out.push(')');
            }
            ExprKind::Closure(c) => {
                let Closure { params, uses, body } = &**c;
                self.out.push_str("function ");
                self.params(params);
                if !uses.is_empty() {
                    self.out.push_str(" use (");
                    for (i, (name, by_ref)) in uses.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        if *by_ref {
                            self.out.push('&');
                        }
                        let _ = write!(self.out, "${name}");
                    }
                    self.out.push(')');
                }
                self.out.push_str(" {\n");
                self.block(body);
                self.pad();
                self.out.push('}');
            }
            ExprKind::ErrorSuppress(e) => {
                self.out.push('@');
                self.expr_paren(e);
            }
            ExprKind::Exit(arg) => {
                self.out.push_str("exit(");
                if let Some(a) = arg {
                    self.expr(a);
                }
                self.out.push(')');
            }
            ExprKind::Print(e) => {
                self.out.push_str("print ");
                self.expr_paren(e);
            }
            ExprKind::InstanceOf { expr, class } => {
                self.expr_paren(expr);
                let _ = write!(self.out, " instanceof {class}");
            }
            ExprKind::Clone(e) => {
                self.out.push_str("clone ");
                self.expr_paren(e);
            }
            ExprKind::IncludeExpr { kind, path } => {
                self.out.push('(');
                self.out.push_str(kind.keyword());
                self.out.push(' ');
                self.expr(path);
                self.out.push(')');
            }
        }
    }

    fn lit(&mut self, l: &Lit) {
        match l {
            Lit::Int(v) => {
                let _ = write!(self.out, "{v}");
            }
            Lit::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            Lit::Str(s) => self.single_quoted(s),
            Lit::Bool(true) => self.out.push_str("true"),
            Lit::Bool(false) => self.out.push_str("false"),
            Lit::Null => self.out.push_str("null"),
        }
    }

    fn single_quoted(&mut self, s: &str) {
        self.out.push('\'');
        for ch in s.chars() {
            match ch {
                '\'' => self.out.push_str("\\'"),
                '\\' => self.out.push_str("\\\\"),
                other => self.out.push(other),
            }
        }
        self.out.push('\'');
    }

    fn interp(&mut self, parts: &[Expr]) {
        self.out.push('"');
        for p in parts {
            match &p.kind {
                ExprKind::Lit(Lit::Str(s)) => {
                    for ch in s.chars() {
                        match ch {
                            '"' => self.out.push_str("\\\""),
                            '\\' => self.out.push_str("\\\\"),
                            '$' => self.out.push_str("\\$"),
                            '\n' => self.out.push_str("\\n"),
                            '\t' => self.out.push_str("\\t"),
                            '\r' => self.out.push_str("\\r"),
                            '\0' => self.out.push_str("\\0"),
                            other => self.out.push(other),
                        }
                    }
                }
                ExprKind::Var(n) => {
                    let _ = write!(self.out, "{{${n}}}");
                }
                ExprKind::ArrayDim { base, index } => {
                    let name = base.as_var_name().unwrap_or("_");
                    let _ = write!(self.out, "{{${name}[");
                    match index.as_deref().map(|i| &i.kind) {
                        Some(ExprKind::Lit(Lit::Str(k))) => {
                            self.single_quoted(k);
                        }
                        Some(ExprKind::Lit(Lit::Int(i))) => {
                            let _ = write!(self.out, "{i}");
                        }
                        Some(ExprKind::Var(v)) => {
                            let _ = write!(self.out, "${v}");
                        }
                        _ => {}
                    }
                    self.out.push_str("]}");
                }
                ExprKind::Prop { base, name } => {
                    let obj = base.as_var_name().unwrap_or("_");
                    let _ = write!(self.out, "{{${obj}->{name}}}");
                }
                other => {
                    // non-canonical part: splice via concatenation-safe form
                    let _ = other;
                    self.out.push('"');
                    self.out.push_str(" . ");
                    self.expr_paren(p);
                    self.out.push_str(" . ");
                    self.out.push('"');
                }
            }
        }
        self.out.push('"');
    }
}

fn visibility_kw(v: Visibility) -> &'static str {
    match v {
        Visibility::Public => "public",
        Visibility::Protected => "protected",
        Visibility::Private => "private",
    }
}

/// Whether an expression must be parenthesized when used as an operand.
fn needs_parens(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Binary { .. }
            | ExprKind::Assign { .. }
            | ExprKind::Ternary { .. }
            | ExprKind::Unary { .. }
            | ExprKind::Cast { .. }
            | ExprKind::InstanceOf { .. }
            | ExprKind::Print(_)
            | ExprKind::Clone(_)
            | ExprKind::IncludeExpr { .. }
            | ExprKind::New { .. }
            | ExprKind::Closure(_)
            | ExprKind::IncDec { .. }
            | ExprKind::ErrorSuppress(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Strips spans by comparing pretty-printed forms after a round trip.
    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap_or_else(|e| panic!("initial parse: {e}"));
        let printed = print_program(&p1);
        let p2 =
            parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printer not a fixpoint for:\n{src}");
    }

    #[test]
    fn round_trip_basics() {
        round_trip("<?php $x = 1; $y = 'a'; $z = $x + 2 * 3;");
        round_trip("<?php echo $a, 'b', 3;");
        round_trip(r#"<?php $q = "SELECT * FROM t WHERE id = $id AND n = {$row['n']}";"#);
    }

    #[test]
    fn round_trip_control_flow() {
        round_trip("<?php if ($a) { f(); } elseif ($b) { g(); } else { h(); }");
        round_trip("<?php while ($x) { $x--; } do { $y++; } while ($y < 3);");
        round_trip("<?php for ($i = 0; $i < 10; $i++) echo $i;");
        round_trip("<?php foreach ($a as $k => $v) { echo $v; }");
        round_trip("<?php switch ($m) { case 1: f(); break; default: g(); }");
    }

    #[test]
    fn round_trip_functions_and_classes() {
        round_trip("<?php function f(&$a, $b = 1) { return $a . $b; }");
        round_trip(
            "<?php class C extends B implements I { public $p = 1; const K = 'v'; public function m($x) { return $this->p; } }",
        );
        round_trip("<?php $cb = function ($x) use (&$a) { return $a($x); };");
    }

    #[test]
    fn round_trip_misc() {
        round_trip("<?php include 'a.php'; require_once 'b.php'; unset($x, $y[1]);");
        round_trip("<?php try { f(); } catch (E $e) { g(); } finally { h(); }");
        round_trip("<?php $a = array('k' => 1, 2); $b = isset($x) ? $x : null;");
        round_trip("<?php global $db; static $n = 0; throw new E('x');");
        round_trip("<?php $r = @f(); $v = (int)$_GET['i']; $w = $x ?? 'd';");
        round_trip("<?php $obj->m(1)->n($p); K::f($q); $o = new C($r);");
    }

    /// [`round_trip`], returning the re-parsed program after checking that
    /// parsing its print again reproduces it node for node, spans included.
    fn reparse(src: &str) -> Program {
        round_trip(src);
        let printed = print_program(&parse(src).expect("parses"));
        let p = parse(&printed).expect("reparses");
        assert_eq!(p, parse(&print_program(&p)).expect("reparses"));
        p
    }

    #[test]
    fn round_trip_boxed_foreach() {
        let p = reparse(
            "<?php foreach ($rows as $k => &$v) { $v = 1; } \
             foreach ($pairs as list($a, , $b)) { echo $a; }",
        );
        let StmtKind::Foreach {
            array,
            key,
            by_ref,
            value,
            body,
        } = &p.stmts[0].kind
        else {
            panic!("{:?}", p.stmts[0])
        };
        assert_eq!(array.as_var_name(), Some("rows"));
        assert_eq!(key.as_ref().and_then(|k| k.as_var_name()), Some("k"));
        assert!(*by_ref);
        assert_eq!(value.as_var_name(), Some("v"));
        assert_eq!(body.len(), 1);
        let StmtKind::Foreach { key, value, .. } = &p.stmts[1].kind else {
            panic!("{:?}", p.stmts[1])
        };
        assert!(key.is_none());
        assert!(matches!(&value.kind, ExprKind::List(items) if items.len() == 3));
    }

    #[test]
    fn round_trip_boxed_if() {
        for src in [
            "<?php if ($a) { f(); } elseif ($b) { g(); } else { h(); }",
            "<?php if ($a): f(); elseif ($b): g(); else: h(); endif;",
        ] {
            let p = reparse(src);
            let StmtKind::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
            } = &p.stmts[0].kind
            else {
                panic!("{:?}", p.stmts[0])
            };
            assert_eq!(cond.as_var_name(), Some("a"));
            assert_eq!(then_branch.len(), 1);
            assert_eq!(elseifs.len(), 1);
            assert_eq!(elseifs[0].0.as_var_name(), Some("b"));
            assert_eq!(else_branch.as_deref().map(<[_]>::len), Some(1));
        }
    }

    #[test]
    fn round_trip_boxed_for() {
        let p = reparse("<?php for ($i = 0, $j = 9; $i < $j; $i++, $j--) { f($i); }");
        let StmtKind::For {
            init,
            cond,
            step,
            body,
        } = &p.stmts[0].kind
        else {
            panic!("{:?}", p.stmts[0])
        };
        assert_eq!(
            (init.len(), cond.len(), step.len(), body.len()),
            (2, 1, 2, 1)
        );
        let p = reparse("<?php for (;;) { break; }");
        assert!(matches!(
            &p.stmts[0].kind,
            StmtKind::For { init, cond, step, .. } if init.is_empty() && cond.is_empty() && step.is_empty()
        ));
    }

    #[test]
    fn round_trip_boxed_closure() {
        let p =
            reparse("<?php $f = function ($x, $y = 2) use (&$acc, $db) { $acc[] = $db->q($x); };");
        let StmtKind::Expr(e) = &p.stmts[0].kind else {
            panic!("{:?}", p.stmts[0])
        };
        let ExprKind::Assign { value, .. } = &e.kind else {
            panic!("{e:?}")
        };
        let ExprKind::Closure(c) = &value.kind else {
            panic!("{value:?}")
        };
        assert_eq!(c.params.len(), 2);
        assert!(c.params[1].default.is_some());
        let uses: Vec<_> = c.uses.iter().map(|(n, r)| (n.as_str(), *r)).collect();
        assert_eq!(uses, [("acc", true), ("db", false)]);
        assert_eq!(c.body.len(), 1);
    }

    #[test]
    fn round_trip_html() {
        round_trip("<h1>t</h1><?php echo $x; ?><p>end</p>");
    }

    #[test]
    fn prints_escaped_strings() {
        let p = parse(r#"<?php $s = 'it\'s';"#).unwrap();
        let out = print_program(&p);
        assert!(out.contains("'it\\'s'"));
    }

    #[test]
    fn print_expr_standalone() {
        let p = parse("<?php f($x, 1);").unwrap();
        let crate::ast::StmtKind::Expr(e) = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(print_expr(e), "f($x, 1)");
    }
}
