//! Abstract syntax tree for the PHP subset.
//!
//! The AST mirrors the structure WAP's ANTLR grammar produced: statements
//! and expressions with source [`Span`]s, string interpolation decomposed
//! into expression parts, and user-defined functions/classes kept as
//! first-class nodes so the taint analyzer can build interprocedural
//! summaries.
//!
//! All nodes are plain data (`pub` fields) in the spirit of passive compound
//! structures; invariants are enforced by the parser that constructs them.
//! Every node sequence is a `Box<[T]>` the parser allocates once at its
//! final length: a parsed tree holds no spare capacity, and no node pays
//! for a capacity word.

use crate::intern::Symbol;
use crate::span::Span;

/// A parsed PHP source file.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements, including inline HTML chunks.
    pub stmts: Box<[Stmt]>,
}

impl Program {
    /// Iterates over every user-defined function in the program, including
    /// class methods (flattened as `Class::method` names are *not* applied
    /// here; the visitor reports the class context separately).
    pub fn functions(&self) -> Vec<&Function> {
        let mut out = Vec::new();
        collect_functions(&self.stmts, &mut out);
        out
    }
}

fn collect_functions<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Function>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Function(f) => {
                out.push(f);
                collect_functions(&f.body, out);
            }
            StmtKind::Class(c) => {
                for m in &c.members {
                    if let ClassMember::Method { func, .. } = m {
                        out.push(func);
                        collect_functions(&func.body, out);
                    }
                }
            }
            _ => {
                for b in s.kind.child_blocks() {
                    collect_functions(b, out);
                }
            }
        }
    }
}

/// A statement with its source location.
///
/// Layout: every statement is as wide as the widest [`StmtKind`] variant,
/// so the payloads of the wide, rare variants live behind a box (`If`'s
/// condition, `Foreach`'s expressions, `For`'s expression lists). The
/// `ast::tests::node_layout_budget` test pins `Stmt` at 88 bytes or less.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Creates a statement node.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// An expression evaluated for effect (`$x = f();`).
    Expr(Expr),
    /// `echo e1, e2, ...;` — also produced by `<?= ... ?>`.
    Echo(Box<[Expr]>),
    /// Raw HTML between PHP regions. Equivalent to an echo of a literal.
    InlineHtml(String),
    /// `if` / `elseif` / `else` chain.
    If {
        /// Condition of the leading `if` (boxed: see [`Stmt`]'s layout note).
        cond: Box<Expr>,
        /// Then-branch body.
        then_branch: Box<[Stmt]>,
        /// `elseif` arms in order.
        elseifs: Box<[(Expr, Box<[Stmt]>)]>,
        /// Optional `else` body.
        else_branch: Option<Box<[Stmt]>>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<[Stmt]>,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body.
        body: Box<[Stmt]>,
        /// Loop condition.
        cond: Expr,
    },
    /// C-style `for` loop.
    For {
        /// Initialization expressions.
        init: Box<[Expr]>,
        /// Condition expressions (last one decides).
        cond: Box<[Expr]>,
        /// Step expressions.
        step: Box<[Expr]>,
        /// Loop body.
        body: Box<[Stmt]>,
    },
    /// `foreach ($array as $key => $value) body`.
    Foreach {
        /// The iterated expression.
        array: Box<Expr>,
        /// Optional key variable.
        key: Option<Box<Expr>>,
        /// Whether the value is taken by reference.
        by_ref: bool,
        /// Value variable (or list pattern).
        value: Box<Expr>,
        /// Loop body.
        body: Box<[Stmt]>,
    },
    /// `switch (subject) { case ...: ... }`.
    Switch {
        /// The switched-on expression.
        subject: Expr,
        /// Case arms, `default` has `test == None`.
        cases: Box<[SwitchCase]>,
    },
    /// `break [n];`
    Break(Option<i64>),
    /// `continue [n];`
    Continue(Option<i64>),
    /// `return [expr];`
    Return(Option<Expr>),
    /// `global $a, $b;`
    Global(Box<[Symbol]>),
    /// `static $a = 1, $b;` inside a function.
    StaticVars(Box<[(Symbol, Option<Expr>)]>),
    /// A user-defined function declaration.
    Function(Function),
    /// A class declaration.
    Class(Class),
    /// `include`/`require` and their `_once` variants.
    Include {
        /// Which include flavor.
        kind: IncludeKind,
        /// The path expression — a sensitive sink for file-inclusion classes.
        path: Expr,
    },
    /// `unset($a, $b);`
    Unset(Box<[Expr]>),
    /// A `{ ... }` block.
    Block(Box<[Stmt]>),
    /// `try { } catch (...) { } finally { }`.
    Try {
        /// Protected body.
        body: Box<[Stmt]>,
        /// Catch clauses.
        catches: Box<[CatchClause]>,
        /// Optional finally body.
        finally: Option<Box<[Stmt]>>,
    },
    /// `throw expr;`
    Throw(Expr),
    /// Empty statement (`;`).
    Nop,
}

impl StmtKind {
    /// All directly nested statement blocks, in source order, used by
    /// generic walkers. Allocation-free.
    pub fn child_blocks(&self) -> impl Iterator<Item = &[Stmt]> {
        let (first, elseifs, cases, catches, last) = match self {
            StmtKind::If {
                then_branch,
                elseifs,
                else_branch,
                ..
            } => (
                Some(then_branch),
                &elseifs[..],
                &[][..],
                &[][..],
                else_branch.as_ref(),
            ),
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Foreach { body, .. }
            | StmtKind::Block(body) => (Some(body), &[][..], &[][..], &[][..], None),
            StmtKind::Switch { cases, .. } => (None, &[][..], &cases[..], &[][..], None),
            StmtKind::Try {
                body,
                catches,
                finally,
            } => (Some(body), &[][..], &[][..], &catches[..], finally.as_ref()),
            _ => (None, &[][..], &[][..], &[][..], None),
        };
        first
            .into_iter()
            .chain(elseifs.iter().map(|(_, b)| b))
            .chain(cases.iter().map(|c| &c.body))
            .chain(catches.iter().map(|c| &c.body))
            .chain(last)
            .map(|b| &b[..])
    }
}

/// One arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// `case expr:` test; `None` for `default:`.
    pub test: Option<Expr>,
    /// The arm's statements (fallthrough is represented by an empty tail).
    pub body: Box<[Stmt]>,
    /// Source location of the arm.
    pub span: Span,
}

/// A `catch (Type1 | Type2 $e)` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// Caught exception class names.
    pub types: Box<[Symbol]>,
    /// The bound variable, if any.
    pub var: Option<Symbol>,
    /// Handler body.
    pub body: Box<[Stmt]>,
}

/// Which include-like construct was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncludeKind {
    /// `include`
    Include,
    /// `include_once`
    IncludeOnce,
    /// `require`
    Require,
    /// `require_once`
    RequireOnce,
}

impl IncludeKind {
    /// Source keyword for this include flavor.
    pub fn keyword(&self) -> &'static str {
        match self {
            IncludeKind::Include => "include",
            IncludeKind::IncludeOnce => "include_once",
            IncludeKind::Require => "require",
            IncludeKind::RequireOnce => "require_once",
        }
    }
}

/// A user-defined function or method.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (original spelling).
    pub name: Symbol,
    /// Declared parameters in order.
    pub params: Box<[Param]>,
    /// Body statements.
    pub body: Box<[Stmt]>,
    /// Whether declared as `function &name`.
    pub by_ref: bool,
    /// Source location of the whole declaration.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name (without `$`).
    pub name: Symbol,
    /// `&$param` — taken by reference.
    pub by_ref: bool,
    /// `...$param` — variadic.
    pub variadic: bool,
    /// Optional default value.
    pub default: Option<Expr>,
    /// Optional type hint as written.
    pub ty: Option<String>,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    /// Class name.
    pub name: Symbol,
    /// `extends` parent, if any.
    pub parent: Option<Symbol>,
    /// `implements` interfaces.
    pub interfaces: Box<[Symbol]>,
    /// Properties, constants, and methods.
    pub members: Box<[ClassMember]>,
    /// Source location.
    pub span: Span,
}

impl Class {
    /// Finds a method by case-insensitive name (PHP method names are
    /// case-insensitive).
    pub fn method(&self, name: &str) -> Option<&Function> {
        self.members.iter().find_map(|m| match m {
            ClassMember::Method { func, .. } if func.name.as_str().eq_ignore_ascii_case(name) => {
                Some(func)
            }
            _ => None,
        })
    }
}

/// Member visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// `public` (the default).
    #[default]
    Public,
    /// `protected`
    Protected,
    /// `private`
    Private,
}

/// A class member.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassMember {
    /// A property declaration.
    Property {
        /// Property name (without `$`).
        name: Symbol,
        /// Optional initializer.
        default: Option<Expr>,
        /// Visibility modifier.
        visibility: Visibility,
        /// Whether declared `static`.
        is_static: bool,
    },
    /// A class constant.
    Const {
        /// Constant name.
        name: Symbol,
        /// Constant value expression.
        value: Expr,
    },
    /// A method.
    Method {
        /// The method body as a function node.
        func: Function,
        /// Visibility modifier.
        visibility: Visibility,
        /// Whether declared `static`.
        is_static: bool,
    },
}

/// An expression with its source location.
///
/// Layout: like [`Stmt`], every expression is as wide as the widest
/// [`ExprKind`] variant, so the rare anonymous function keeps its three
/// lists behind one box. The `ast::tests::node_layout_budget` test pins
/// `Expr` at 48 bytes or less.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// If this is a plain variable, returns its name.
    pub fn as_var_name(&self) -> Option<&'static str> {
        self.var_symbol().map(Symbol::as_str)
    }

    /// If this is a plain variable, returns its interned name.
    pub fn var_symbol(&self) -> Option<Symbol> {
        match &self.kind {
            ExprKind::Var(n) => Some(*n),
            _ => None,
        }
    }

    /// The root variable of an lvalue-ish chain: `$a['x']->y[0]` → `a`.
    pub fn root_var(&self) -> Option<&'static str> {
        self.root_var_symbol().map(Symbol::as_str)
    }

    /// Interned form of [`Expr::root_var`].
    pub fn root_var_symbol(&self) -> Option<Symbol> {
        match &self.kind {
            ExprKind::Var(n) => Some(*n),
            ExprKind::ArrayDim { base, .. } => base.root_var_symbol(),
            ExprKind::Prop { base, .. } => base.root_var_symbol(),
            _ => None,
        }
    }

    /// If this is a string literal (single-quoted or interpolation-free
    /// template), returns its value.
    pub fn as_str_lit(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Lit(Lit::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `$name`
    Var(Symbol),
    /// A literal value.
    Lit(Lit),
    /// A bare name: constant fetch or the callee of a direct call.
    Name(Symbol),
    /// Double-quoted/heredoc string with interpolation, decomposed into
    /// literal and variable parts (all parts are expressions).
    Interp(Box<[Expr]>),
    /// `base[index]` — `index == None` for the push form `$a[] = ...`.
    ArrayDim {
        /// The indexed expression.
        base: Box<Expr>,
        /// The index, absent in `$a[]`.
        index: Option<Box<Expr>>,
    },
    /// `base->name`
    Prop {
        /// Object expression.
        base: Box<Expr>,
        /// Property name.
        name: Symbol,
    },
    /// `Class::$name`
    StaticProp {
        /// Class name.
        class: Symbol,
        /// Property name (without `$`).
        name: Symbol,
    },
    /// `Class::NAME`
    ClassConst {
        /// Class name.
        class: Symbol,
        /// Constant name.
        name: Symbol,
    },
    /// `callee(args)` — callee is usually a [`ExprKind::Name`], but may be a
    /// variable (`$f()`) or any expression.
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Arguments in order.
        args: Box<[Expr]>,
    },
    /// `target->method(args)`
    MethodCall {
        /// Receiver expression.
        target: Box<Expr>,
        /// Method name.
        method: Symbol,
        /// Arguments in order.
        args: Box<[Expr]>,
    },
    /// `Class::method(args)`
    StaticCall {
        /// Class name.
        class: Symbol,
        /// Method name.
        method: Symbol,
        /// Arguments in order.
        args: Box<[Expr]>,
    },
    /// `new Class(args)`
    New {
        /// Instantiated class name (dynamic `new $c` stores `"$c"`).
        class: Symbol,
        /// Constructor arguments.
        args: Box<[Expr]>,
    },
    /// Assignment, including compound forms and by-reference.
    Assign {
        /// Assignment target (lvalue).
        target: Box<Expr>,
        /// Operator (`=`, `.=`, `+=`, ...).
        op: AssignOp,
        /// Assigned value.
        value: Box<Expr>,
        /// Whether this is `=&`.
        by_ref: bool,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `++$x`, `$x--`, ...
    IncDec {
        /// Prefix (`++$x`) vs postfix (`$x++`).
        pre: bool,
        /// Increment vs decrement.
        inc: bool,
        /// The mutated lvalue.
        target: Box<Expr>,
    },
    /// `cond ? then : else` — `then == None` is the short form `?:`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true (absent in `?:`).
        then: Option<Box<Expr>>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// `(int) expr` and friends.
    Cast {
        /// Target type.
        ty: CastType,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `isset($a, $b)`
    Isset(Box<[Expr]>),
    /// `empty($a)`
    Empty(Box<Expr>),
    /// `array(...)` / `[...]`
    Array(Box<[ArrayItem]>),
    /// `list($a, , $b) = ...` target.
    List(Box<[Option<Expr>]>),
    /// Anonymous function (boxed: see [`Expr`]'s layout note).
    Closure(Box<Closure>),
    /// `@expr` — error suppression.
    ErrorSuppress(Box<Expr>),
    /// `exit(expr)` / `die(expr)` — a sensitive construct for several
    /// classes and an error/exit symptom for the predictor.
    Exit(Option<Box<Expr>>),
    /// `print expr` (an expression in PHP).
    Print(Box<Expr>),
    /// `expr instanceof Class`
    InstanceOf {
        /// Tested expression.
        expr: Box<Expr>,
        /// Class name.
        class: Symbol,
    },
    /// `clone expr`
    Clone(Box<Expr>),
    /// `` `cmd` `` — backtick shell execution (an OS command injection
    /// sink when interpolated with tainted data).
    ShellExec(Box<[Expr]>),
    /// `include`-as-expression (e.g. `$ok = include $path;`).
    IncludeExpr {
        /// Include flavor.
        kind: IncludeKind,
        /// Path expression.
        path: Box<Expr>,
    },
}

/// The payload of [`ExprKind::Closure`].
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    /// Parameters.
    pub params: Box<[Param]>,
    /// `use (...)` captures: name + by-ref flag.
    pub uses: Box<[(Symbol, bool)]>,
    /// Body statements.
    pub body: Box<[Stmt]>,
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (interpolation-free).
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`
    Null,
}

/// One element of an array literal.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayItem {
    /// Optional `key =>` part.
    pub key: Option<Expr>,
    /// Element value.
    pub value: Expr,
    /// `&$v` element.
    pub by_ref: bool,
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `.=` — the string-append form central to query construction.
    Concat,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Mod,
    /// `??=`
    Coalesce,
}

impl AssignOp {
    /// Source spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Concat => ".=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Mod => "%=",
            AssignOp::Coalesce => "??=",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `.` — string concatenation; propagates taint from both sides.
    Concat,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `===`
    Identical,
    /// `!==`
    NotIdentical,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<=>`
    Spaceship,
    /// `&&` / `and`
    And,
    /// `||` / `or`
    Or,
    /// `xor`
    Xor,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `??`
    Coalesce,
}

impl BinOp {
    /// Source spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Concat => ".",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::NotEq => "!=",
            BinOp::Identical => "===",
            BinOp::NotIdentical => "!==",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Spaceship => "<=>",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Xor => "xor",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Coalesce => "??",
        }
    }

    /// Whether the operator always yields a boolean/number, i.e. kills
    /// string taint (comparisons and arithmetic cannot carry an injection
    /// payload into a string sink).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::NotEq
                | BinOp::Identical
                | BinOp::NotIdentical
                | BinOp::Lt
                | BinOp::Gt
                | BinOp::Le
                | BinOp::Ge
                | BinOp::Spaceship
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `+`
    Pos,
    /// `!`
    Not,
    /// `~`
    BitNot,
}

impl UnOp {
    /// Source spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Pos => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// Cast target types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastType {
    /// `(int)` — sanitizing for every string-injection class.
    Int,
    /// `(float)` / `(double)` — sanitizing like `(int)`.
    Float,
    /// `(string)`
    Str,
    /// `(bool)` — sanitizing (boolean cannot carry a payload).
    Bool,
    /// `(array)`
    Array,
    /// `(object)`
    Object,
    /// `(unset)`
    Unset,
}

impl CastType {
    /// Source spelling (parenthesized form).
    pub fn keyword(&self) -> &'static str {
        match self {
            CastType::Int => "int",
            CastType::Float => "float",
            CastType::Str => "string",
            CastType::Bool => "bool",
            CastType::Array => "array",
            CastType::Object => "object",
            CastType::Unset => "unset",
        }
    }

    /// Whether the cast neutralizes string-injection payloads.
    pub fn is_sanitizing(&self) -> bool {
        matches!(self, CastType::Int | CastType::Float | CastType::Bool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr {
        Expr::new(ExprKind::Var(name.into()), Span::synthetic())
    }

    #[test]
    fn root_var_walks_chains() {
        let e = Expr::new(
            ExprKind::ArrayDim {
                base: Box::new(Expr::new(
                    ExprKind::Prop {
                        base: Box::new(var("a")),
                        name: "b".into(),
                    },
                    Span::synthetic(),
                )),
                index: None,
            },
            Span::synthetic(),
        );
        assert_eq!(e.root_var(), Some("a"));
        assert_eq!(var("x").root_var(), Some("x"));
        assert_eq!(
            Expr::new(ExprKind::Lit(Lit::Null), Span::synthetic()).root_var(),
            None
        );
    }

    #[test]
    fn cast_sanitization_classification() {
        assert!(CastType::Int.is_sanitizing());
        assert!(CastType::Bool.is_sanitizing());
        assert!(!CastType::Str.is_sanitizing());
        assert!(!CastType::Array.is_sanitizing());
    }

    #[test]
    fn comparison_ops() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Spaceship.is_comparison());
        assert!(!BinOp::Concat.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }

    #[test]
    fn child_blocks_of_if() {
        let mk = |k| Stmt::new(k, Span::synthetic());
        let s = StmtKind::If {
            cond: Box::new(var("c")),
            then_branch: Box::new([mk(StmtKind::Nop)]),
            elseifs: Box::new([(
                var("d"),
                Box::new([mk(StmtKind::Nop), mk(StmtKind::Nop)]) as Box<[_]>,
            )]),
            else_branch: Some(Box::new([])),
        };
        let blocks: Vec<_> = s.child_blocks().collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1].len(), 2);
    }

    /// Every node is as wide as its widest variant: a new inline wide
    /// variant would silently re-inflate every statement or expression.
    #[test]
    fn node_layout_budget() {
        use std::mem::size_of;
        eprintln!("SIZES stmt={} expr={} stmtkind={} exprkind={} lit={} param={} fn={} class={} case={} item={}", size_of::<Stmt>(), size_of::<Expr>(), size_of::<StmtKind>(), size_of::<ExprKind>(), size_of::<Lit>(), size_of::<Param>(), size_of::<Function>(), size_of::<Class>(), size_of::<SwitchCase>(), size_of::<ArrayItem>());
        assert!(
            size_of::<Stmt>() <= 88,
            "Stmt is {} bytes",
            size_of::<Stmt>()
        );
        assert!(
            size_of::<Expr>() <= 48,
            "Expr is {} bytes",
            size_of::<Expr>()
        );
    }

    #[test]
    fn functions_collects_nested_and_methods() {
        let f_inner = Function {
            name: "inner".into(),
            params: Box::new([]),
            body: Box::new([]),
            by_ref: false,
            span: Span::synthetic(),
        };
        let f_outer = Function {
            name: "outer".into(),
            params: Box::new([]),
            body: Box::new([Stmt::new(StmtKind::Function(f_inner), Span::synthetic())]),
            by_ref: false,
            span: Span::synthetic(),
        };
        let method = Function {
            name: "run".into(),
            params: Box::new([]),
            body: Box::new([]),
            by_ref: false,
            span: Span::synthetic(),
        };
        let class = Class {
            name: "C".into(),
            parent: None,
            interfaces: Box::new([]),
            members: Box::new([ClassMember::Method {
                func: method,
                visibility: Visibility::Public,
                is_static: false,
            }]),
            span: Span::synthetic(),
        };
        let prog = Program {
            stmts: Box::new([
                Stmt::new(StmtKind::Function(f_outer), Span::synthetic()),
                Stmt::new(StmtKind::Class(class), Span::synthetic()),
            ]),
        };
        let names: Vec<_> = prog.functions().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "run"]);
    }

    #[test]
    fn class_method_lookup_case_insensitive() {
        let method = Function {
            name: "Query".into(),
            params: Box::new([]),
            body: Box::new([]),
            by_ref: false,
            span: Span::synthetic(),
        };
        let class = Class {
            name: "wpdb".into(),
            parent: None,
            interfaces: Box::new([]),
            members: Box::new([ClassMember::Method {
                func: method,
                visibility: Visibility::Public,
                is_static: false,
            }]),
            span: Span::synthetic(),
        };
        assert!(class.method("query").is_some());
        assert!(class.method("QUERY").is_some());
        assert!(class.method("missing").is_none());
    }
}
