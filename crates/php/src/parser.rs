//! Recursive-descent parser for the PHP subset.
//!
//! Produces a [`Program`] from token streams created by the
//! [`lexer`](crate::lexer). Precedence follows PHP 7 (with `.` at the same
//! level as `+`/`-`), the keyword operators `and`/`or`/`xor` bind looser
//! than assignment, and the alternative block syntax (`if (...): ... endif;`)
//! used by template-heavy code is supported.

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::intern::Symbol;
use crate::lexer::tokenize;
use crate::span::Span;
use crate::token::{IndexKey, StrPart, Token, TokenKind};

/// Parses a full PHP source file (possibly containing inline HTML).
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered; the parser does
/// not attempt recovery.
///
/// # Examples
///
/// ```
/// use wap_php::parse;
/// let program = parse("<?php $id = $_GET['id']; mysql_query(\"SELECT $id\");")?;
/// assert_eq!(program.stmts.len(), 2);
/// # Ok::<(), wap_php::ParseError>(())
/// ```
pub fn parse(src: &str) -> ParseResult<Program> {
    let tokens = tokenize(src)?;
    Parser::new(tokens).parse_program()
}

/// The deepest nesting the parser descends into. Statements and blocks,
/// and parenthesised, call, array, unary and right-associative
/// (assignment, ternary, `??`) expressions each take one level of one
/// shared counter; a left-associative binary chain is a flat loop and
/// takes none. Deeper input is a [`ParseError`] at the token that opens
/// the level too many, so neither the parser nor the recursive walkers
/// downstream ever see a tree deep enough to overflow a thread's stack.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered and not yet left (see [`MAX_NESTING`]).
    depth: usize,
}

/// Binds a token to its binary operator and precedence tier for
/// `parse_binary`. Tiers mirror PHP 7's table for the operators between
/// `??` and `instanceof` — `||` loosest (0), `* / %` tightest (9) — and
/// every tier here is left-associative.
fn binary_op(tok: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match tok {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::Pipe => (BinOp::BitOr, 2),
        TokenKind::Caret => (BinOp::BitXor, 3),
        TokenKind::Amp => (BinOp::BitAnd, 4),
        TokenKind::Identical => (BinOp::Identical, 5),
        TokenKind::NotIdentical => (BinOp::NotIdentical, 5),
        TokenKind::Eq => (BinOp::Eq, 5),
        TokenKind::NotEq => (BinOp::NotEq, 5),
        TokenKind::Le => (BinOp::Le, 6),
        TokenKind::Ge => (BinOp::Ge, 6),
        TokenKind::Lt => (BinOp::Lt, 6),
        TokenKind::Gt => (BinOp::Gt, 6),
        TokenKind::Spaceship => (BinOp::Spaceship, 6),
        TokenKind::Shl => (BinOp::Shl, 7),
        TokenKind::Shr => (BinOp::Shr, 7),
        TokenKind::Plus => (BinOp::Add, 8),
        TokenKind::Minus => (BinOp::Sub, 8),
        TokenKind::Dot => (BinOp::Concat, 8),
        TokenKind::Star => (BinOp::Mul, 9),
        TokenKind::Slash => (BinOp::Div, 9),
        TokenKind::Percent => (BinOp::Mod, 9),
        _ => return None,
    })
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `parse` one nesting level deeper, or fails at the current
    /// token past [`MAX_NESTING`]. A parse error ends the whole parse, so
    /// a failed level is never left.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> ParseResult<T>) -> ParseResult<T> {
        self.deeper(self.span())?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    /// Enters one nesting level, or fails at `at` past [`MAX_NESTING`].
    fn deeper(&mut self, at: Span) -> ParseResult<()> {
        if self.depth >= MAX_NESTING {
            return Err(ParseError::new(
                format!("nesting deeper than {MAX_NESTING} levels"),
                at,
            ));
        }
        self.depth += 1;
        Ok(())
    }

    // ---- cursor helpers ----

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// Consumes the current token and returns it. The cursor only ever
    /// moves forward, so the token's payload is moved out rather than
    /// cloned; only its span stays behind for [`Parser::prev_span`]. At
    /// the final `Eof` the cursor stays put and `Eof` is returned again.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos >= last {
            return self.tokens[last].clone();
        }
        let t = &mut self.tokens[self.pos];
        self.pos += 1;
        Token {
            kind: std::mem::replace(&mut t.kind, TokenKind::Eof),
            span: t.span,
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> ParseResult<Token> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("expected {}", kind.describe())))
        }
    }

    fn unexpected(&self, what: &str) -> ParseError {
        ParseError::new(
            format!("{what}, found {}", self.peek().describe()),
            self.span(),
        )
    }

    fn ident(&mut self) -> ParseResult<Symbol> {
        match *self.peek() {
            TokenKind::Ident(n) => {
                self.bump();
                Ok(n)
            }
            // contextual keywords usable as names (method/property names)
            TokenKind::ListKw => {
                self.bump();
                Ok("list".into())
            }
            TokenKind::ArrayKw => {
                self.bump();
                Ok("array".into())
            }
            TokenKind::Print => {
                self.bump();
                Ok("print".into())
            }
            TokenKind::Default => {
                self.bump();
                Ok("default".into())
            }
            TokenKind::Class => {
                self.bump();
                Ok("class".into())
            }
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    // ---- program & statements ----

    fn parse_program(mut self) -> ParseResult<Program> {
        let mut stmts = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(Program { stmts })
    }

    fn parse_stmt(&mut self) -> ParseResult<Stmt> {
        self.nested(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        let kind = match *self.peek() {
            TokenKind::InlineHtml(_) => {
                let TokenKind::InlineHtml(h) = self.bump().kind else {
                    unreachable!("peeked inline HTML")
                };
                StmtKind::InlineHtml(h)
            }
            TokenKind::Semi => {
                self.bump();
                StmtKind::Nop
            }
            TokenKind::LBrace => {
                self.bump();
                let body = self.parse_stmts_until(&TokenKind::RBrace)?;
                self.expect(&TokenKind::RBrace)?;
                StmtKind::Block(body)
            }
            TokenKind::If => return self.parse_if(),
            TokenKind::While => return self.parse_while(),
            TokenKind::Do => return self.parse_do_while(),
            TokenKind::For => return self.parse_for(),
            TokenKind::Foreach => return self.parse_foreach(),
            TokenKind::Switch => return self.parse_switch(),
            TokenKind::Function if matches!(self.peek_at(1), TokenKind::Ident(_)) => {
                let f = self.parse_function()?;
                StmtKind::Function(f)
            }
            TokenKind::Class => {
                let c = self.parse_class()?;
                StmtKind::Class(c)
            }
            TokenKind::Interface => {
                // parse and discard interface bodies: keep method names out
                // of the function table but accept the source
                self.bump();
                let _name = self.ident()?;
                if self.eat(&TokenKind::Extends) {
                    loop {
                        self.ident()?;
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::LBrace)?;
                let mut depth = 1usize;
                while depth > 0 {
                    match self.peek() {
                        TokenKind::LBrace => {
                            depth += 1;
                            self.bump();
                        }
                        TokenKind::RBrace => {
                            depth -= 1;
                            self.bump();
                        }
                        TokenKind::Eof => return Err(self.unexpected("unterminated interface")),
                        _ => {
                            self.bump();
                        }
                    }
                }
                StmtKind::Nop
            }
            TokenKind::Echo => {
                self.bump();
                let mut items = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    items.push(self.parse_expr()?);
                }
                self.end_stmt()?;
                StmtKind::Echo(items)
            }
            TokenKind::Break => {
                self.bump();
                let n = if let TokenKind::Int(v) = *self.peek() {
                    self.bump();
                    Some(v)
                } else {
                    None
                };
                self.end_stmt()?;
                StmtKind::Break(n)
            }
            TokenKind::Continue => {
                self.bump();
                let n = if let TokenKind::Int(v) = *self.peek() {
                    self.bump();
                    Some(v)
                } else {
                    None
                };
                self.end_stmt()?;
                StmtKind::Continue(n)
            }
            TokenKind::Return => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.end_stmt()?;
                StmtKind::Return(value)
            }
            TokenKind::Global => {
                self.bump();
                let mut names = Vec::new();
                loop {
                    match self.bump().kind {
                        TokenKind::Variable(n) => names.push(n),
                        _ => return Err(self.unexpected("expected variable in global")),
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.end_stmt()?;
                StmtKind::Global(names)
            }
            TokenKind::Static if matches!(self.peek_at(1), TokenKind::Variable(_)) => {
                self.bump();
                let mut vars = Vec::new();
                loop {
                    let name = match self.bump().kind {
                        TokenKind::Variable(n) => n,
                        _ => return Err(self.unexpected("expected variable in static")),
                    };
                    let default = if self.eat(&TokenKind::Assign) {
                        Some(self.parse_expr()?)
                    } else {
                        None
                    };
                    vars.push((name, default));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.end_stmt()?;
                StmtKind::StaticVars(vars)
            }
            TokenKind::Include
            | TokenKind::IncludeOnce
            | TokenKind::Require
            | TokenKind::RequireOnce => {
                let kind = match self.bump().kind {
                    TokenKind::Include => IncludeKind::Include,
                    TokenKind::IncludeOnce => IncludeKind::IncludeOnce,
                    TokenKind::Require => IncludeKind::Require,
                    _ => IncludeKind::RequireOnce,
                };
                let path = self.parse_expr()?;
                self.end_stmt()?;
                StmtKind::Include { kind, path }
            }
            TokenKind::Unset => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let mut targets = Vec::new();
                if !matches!(self.peek(), TokenKind::RParen) {
                    loop {
                        targets.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                self.end_stmt()?;
                StmtKind::Unset(targets)
            }
            TokenKind::Try => return self.parse_try(),
            TokenKind::Throw => {
                self.bump();
                let e = self.parse_expr()?;
                self.end_stmt()?;
                StmtKind::Throw(e)
            }
            TokenKind::Namespace => {
                // accept and ignore namespace declarations
                self.bump();
                while !matches!(
                    self.peek(),
                    TokenKind::Semi | TokenKind::LBrace | TokenKind::Eof
                ) {
                    self.bump();
                }
                if matches!(self.peek(), TokenKind::Semi) {
                    self.bump();
                }
                StmtKind::Nop
            }
            TokenKind::Use => {
                // accept and ignore use imports
                self.bump();
                while !matches!(self.peek(), TokenKind::Semi | TokenKind::Eof) {
                    self.bump();
                }
                self.eat(&TokenKind::Semi);
                StmtKind::Nop
            }
            TokenKind::Const => {
                // top-level const NAME = value;
                self.bump();
                let _name = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr()?;
                self.end_stmt()?;
                StmtKind::Expr(value)
            }
            _ => {
                let e = self.parse_expr()?;
                self.end_stmt()?;
                StmtKind::Expr(e)
            }
        };
        let span = start.merge(self.prev_span());
        Ok(Stmt::new(kind, span))
    }

    /// Consumes the statement terminator: `;` (also synthesized by `?>`).
    fn end_stmt(&mut self) -> ParseResult<()> {
        if self.eat(&TokenKind::Semi) || matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("expected `;`"))
        }
    }

    fn parse_stmts_until(&mut self, end: &TokenKind) -> ParseResult<Vec<Stmt>> {
        let mut out = Vec::new();
        while self.peek() != end && !matches!(self.peek(), TokenKind::Eof) {
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    /// Parses either `{ ... }`, a single statement, or (when `alt_end` is
    /// given) the alternative syntax `: ... alt_end`.
    fn parse_body(&mut self, alt_ends: &[&str]) -> ParseResult<(Vec<Stmt>, AltEnd)> {
        if self.eat(&TokenKind::LBrace) {
            let body = self.parse_stmts_until(&TokenKind::RBrace)?;
            self.expect(&TokenKind::RBrace)?;
            return Ok((body, AltEnd::None));
        }
        if self.eat(&TokenKind::Colon) {
            let mut body = Vec::new();
            loop {
                match self.peek() {
                    TokenKind::Ident(n)
                        if alt_ends.iter().any(|e| n.as_str().eq_ignore_ascii_case(e)) =>
                    {
                        return Ok((body, AltEnd::Keyword(n.lower())));
                    }
                    TokenKind::Else | TokenKind::Elseif if alt_ends.contains(&"endif") => {
                        return Ok((body, AltEnd::ElseArm));
                    }
                    TokenKind::Eof => {
                        return Err(self.unexpected("unterminated alternative-syntax block"))
                    }
                    _ => body.push(self.parse_stmt()?),
                }
            }
        }
        Ok((vec![self.parse_stmt()?], AltEnd::None))
    }

    fn parse_if(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::If)?;
        self.expect(&TokenKind::LParen)?;
        let cond = Box::new(self.parse_expr()?);
        self.expect(&TokenKind::RParen)?;
        let (then_branch, alt) = self.parse_body(&["endif"])?;
        let mut elseifs = Vec::new();
        let mut else_branch = None;
        match alt {
            AltEnd::None => loop {
                if self.eat(&TokenKind::Elseif) {
                    self.expect(&TokenKind::LParen)?;
                    let c = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    let (b, _) = self.parse_body(&[])?;
                    elseifs.push((c, b));
                } else if matches!(self.peek(), TokenKind::Else)
                    && matches!(self.peek_at(1), TokenKind::If)
                {
                    self.bump();
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let c = self.parse_expr()?;
                    self.expect(&TokenKind::RParen)?;
                    let (b, _) = self.parse_body(&[])?;
                    elseifs.push((c, b));
                } else if self.eat(&TokenKind::Else) {
                    let (b, _) = self.parse_body(&[])?;
                    else_branch = Some(b);
                    break;
                } else {
                    break;
                }
            },
            AltEnd::Keyword(_) => {
                // `endif` already peeked in parse_body; consume it
                self.bump();
                self.end_stmt()?;
            }
            AltEnd::ElseArm => {
                // alternative-syntax else/elseif chain
                loop {
                    if self.eat(&TokenKind::Elseif) {
                        self.expect(&TokenKind::LParen)?;
                        let c = self.parse_expr()?;
                        self.expect(&TokenKind::RParen)?;
                        let (b, a) = self.parse_body(&["endif"])?;
                        elseifs.push((c, b));
                        match a {
                            AltEnd::ElseArm => continue,
                            AltEnd::Keyword(_) => {
                                self.bump();
                                self.end_stmt()?;
                                break;
                            }
                            AltEnd::None => break,
                        }
                    } else if self.eat(&TokenKind::Else) {
                        self.expect(&TokenKind::Colon)?;
                        let mut b = Vec::new();
                        while !matches!(self.peek(), TokenKind::Ident(n) if n.as_str().eq_ignore_ascii_case("endif"))
                        {
                            if matches!(self.peek(), TokenKind::Eof) {
                                return Err(self.unexpected("unterminated else block"));
                            }
                            b.push(self.parse_stmt()?);
                        }
                        self.bump(); // endif
                        self.end_stmt()?;
                        else_branch = Some(b);
                        break;
                    } else {
                        return Err(self.unexpected("expected else/elseif/endif"));
                    }
                }
            }
        }
        let span = start.merge(self.prev_span());
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
            },
            span,
        ))
    }

    fn parse_while(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::While)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let (body, alt) = self.parse_body(&["endwhile"])?;
        if let AltEnd::Keyword(_) = alt {
            self.bump();
            self.end_stmt()?;
        }
        Ok(Stmt::new(
            StmtKind::While { cond, body },
            start.merge(self.prev_span()),
        ))
    }

    fn parse_do_while(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::Do)?;
        let (body, _) = self.parse_body(&[])?;
        self.expect(&TokenKind::While)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        self.end_stmt()?;
        Ok(Stmt::new(
            StmtKind::DoWhile { body, cond },
            start.merge(self.prev_span()),
        ))
    }

    fn parse_for(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::For)?;
        self.expect(&TokenKind::LParen)?;
        let init = self.parse_for_clause(&TokenKind::Semi)?;
        self.expect(&TokenKind::Semi)?;
        let cond = self.parse_for_clause(&TokenKind::Semi)?;
        self.expect(&TokenKind::Semi)?;
        let step = self.parse_for_clause(&TokenKind::RParen)?;
        self.expect(&TokenKind::RParen)?;
        let (body, alt) = self.parse_body(&["endfor"])?;
        if let AltEnd::Keyword(_) = alt {
            self.bump();
            self.end_stmt()?;
        }
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            start.merge(self.prev_span()),
        ))
    }

    /// One comma-separated `for` header clause, possibly empty, up to (not
    /// including) `end`.
    fn parse_for_clause(&mut self, end: &TokenKind) -> ParseResult<Box<[Expr]>> {
        let mut exprs = Vec::new();
        if self.peek() != end {
            loop {
                exprs.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(exprs.into_boxed_slice())
    }

    fn parse_foreach(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::Foreach)?;
        self.expect(&TokenKind::LParen)?;
        let array = Box::new(self.parse_expr()?);
        self.expect(&TokenKind::As)?;
        let mut by_ref = self.eat(&TokenKind::Amp);
        let first = Box::new(self.parse_expr()?);
        let (key, value) = if self.eat(&TokenKind::DoubleArrow) {
            let vref = self.eat(&TokenKind::Amp);
            by_ref = vref;
            (Some(first), Box::new(self.parse_expr()?))
        } else {
            (None, first)
        };
        self.expect(&TokenKind::RParen)?;
        let (body, alt) = self.parse_body(&["endforeach"])?;
        if let AltEnd::Keyword(_) = alt {
            self.bump();
            self.end_stmt()?;
        }
        Ok(Stmt::new(
            StmtKind::Foreach {
                array,
                key,
                by_ref,
                value,
                body,
            },
            start.merge(self.prev_span()),
        ))
    }

    fn parse_switch(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::Switch)?;
        self.expect(&TokenKind::LParen)?;
        let subject = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let alt = !self.eat(&TokenKind::LBrace);
        if alt {
            self.expect(&TokenKind::Colon)?;
        }
        let mut cases = Vec::new();
        loop {
            match *self.peek() {
                TokenKind::Case => {
                    let cspan = self.span();
                    self.bump();
                    let test = self.parse_expr()?;
                    if !self.eat(&TokenKind::Colon) {
                        self.expect(&TokenKind::Semi)?;
                    }
                    let body = self.parse_case_body(alt)?;
                    cases.push(SwitchCase {
                        test: Some(test),
                        body,
                        span: cspan.merge(self.prev_span()),
                    });
                }
                TokenKind::Default => {
                    let cspan = self.span();
                    self.bump();
                    if !self.eat(&TokenKind::Colon) {
                        self.expect(&TokenKind::Semi)?;
                    }
                    let body = self.parse_case_body(alt)?;
                    cases.push(SwitchCase {
                        test: None,
                        body,
                        span: cspan.merge(self.prev_span()),
                    });
                }
                TokenKind::RBrace if !alt => {
                    self.bump();
                    break;
                }
                TokenKind::Ident(n) if alt && n.as_str().eq_ignore_ascii_case("endswitch") => {
                    self.bump();
                    self.end_stmt()?;
                    break;
                }
                _ => return Err(self.unexpected("expected case, default, or end of switch")),
            }
        }
        Ok(Stmt::new(
            StmtKind::Switch { subject, cases },
            start.merge(self.prev_span()),
        ))
    }

    fn parse_case_body(&mut self, alt: bool) -> ParseResult<Vec<Stmt>> {
        let mut body = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Case | TokenKind::Default | TokenKind::Eof => break,
                TokenKind::RBrace if !alt => break,
                TokenKind::Ident(n) if alt && n.as_str().eq_ignore_ascii_case("endswitch") => break,
                _ => body.push(self.parse_stmt()?),
            }
        }
        Ok(body)
    }

    fn parse_try(&mut self) -> ParseResult<Stmt> {
        let start = self.span();
        self.expect(&TokenKind::Try)?;
        self.expect(&TokenKind::LBrace)?;
        let body = self.parse_stmts_until(&TokenKind::RBrace)?;
        self.expect(&TokenKind::RBrace)?;
        let mut catches = Vec::new();
        while self.eat(&TokenKind::Catch) {
            self.expect(&TokenKind::LParen)?;
            let mut types = vec![self.parse_class_name()?];
            while self.eat(&TokenKind::Pipe) {
                types.push(self.parse_class_name()?);
            }
            let var = if let TokenKind::Variable(n) = *self.peek() {
                self.bump();
                Some(n)
            } else {
                None
            };
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::LBrace)?;
            let cbody = self.parse_stmts_until(&TokenKind::RBrace)?;
            self.expect(&TokenKind::RBrace)?;
            catches.push(CatchClause {
                types,
                var,
                body: cbody,
            });
        }
        let finally = if self.eat(&TokenKind::Finally) {
            self.expect(&TokenKind::LBrace)?;
            let f = self.parse_stmts_until(&TokenKind::RBrace)?;
            self.expect(&TokenKind::RBrace)?;
            Some(f)
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::Try {
                body,
                catches,
                finally,
            },
            start.merge(self.prev_span()),
        ))
    }

    /// Class names may be `\Foo\Bar`; we keep the last segment.
    fn parse_class_name(&mut self) -> ParseResult<Symbol> {
        self.eat(&TokenKind::Backslash);
        let mut name = self.ident()?;
        while self.eat(&TokenKind::Backslash) {
            name = self.ident()?;
        }
        Ok(name)
    }

    fn parse_function(&mut self) -> ParseResult<Function> {
        let start = self.span();
        self.expect(&TokenKind::Function)?;
        let by_ref = self.eat(&TokenKind::Amp);
        let name = self.ident()?;
        let params = self.parse_params()?;
        // optional return type `: type`
        if self.eat(&TokenKind::Colon) {
            self.eat(&TokenKind::Question);
            self.parse_class_name()?;
        }
        self.expect(&TokenKind::LBrace)?;
        let body = self.parse_stmts_until(&TokenKind::RBrace)?;
        self.expect(&TokenKind::RBrace)?;
        Ok(Function {
            name,
            params,
            body,
            by_ref,
            span: start.merge(self.prev_span()),
        })
    }

    fn parse_params(&mut self) -> ParseResult<Vec<Param>> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                let mut ty = None;
                if self.eat(&TokenKind::Question) {
                    // nullable hint
                    ty = Some(format!("?{}", self.parse_class_name()?));
                } else if matches!(
                    self.peek(),
                    TokenKind::Ident(_) | TokenKind::ArrayKw | TokenKind::Backslash
                ) {
                    ty = Some(match *self.peek() {
                        TokenKind::ArrayKw => {
                            self.bump();
                            "array".to_string()
                        }
                        _ => self.parse_class_name()?.as_str().to_string(),
                    });
                }
                let by_ref = self.eat(&TokenKind::Amp);
                let variadic = self.eat(&TokenKind::Ellipsis);
                let name = match self.bump().kind {
                    TokenKind::Variable(n) => n,
                    _ => return Err(self.unexpected("expected parameter variable")),
                };
                let default = if self.eat(&TokenKind::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                params.push(Param {
                    name,
                    by_ref,
                    variadic,
                    default,
                    ty,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
                if matches!(self.peek(), TokenKind::RParen) {
                    break; // trailing comma
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(params)
    }

    fn parse_class(&mut self) -> ParseResult<Class> {
        let start = self.span();
        self.expect(&TokenKind::Class)?;
        let name = self.ident()?;
        let parent = if self.eat(&TokenKind::Extends) {
            Some(self.parse_class_name()?)
        } else {
            None
        };
        let mut interfaces = Vec::new();
        if self.eat(&TokenKind::Implements) {
            loop {
                interfaces.push(self.parse_class_name()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::LBrace)?;
        let mut members = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            members.push(self.parse_class_member()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Class {
            name,
            parent,
            interfaces,
            members,
            span: start.merge(self.prev_span()),
        })
    }

    fn parse_class_member(&mut self) -> ParseResult<ClassMember> {
        let mut visibility = Visibility::Public;
        let mut is_static = false;
        loop {
            match self.peek() {
                TokenKind::Public => {
                    self.bump();
                    visibility = Visibility::Public;
                }
                TokenKind::Protected => {
                    self.bump();
                    visibility = Visibility::Protected;
                }
                TokenKind::Private => {
                    self.bump();
                    visibility = Visibility::Private;
                }
                TokenKind::Static => {
                    self.bump();
                    is_static = true;
                }
                TokenKind::VarKw => {
                    self.bump();
                    visibility = Visibility::Public;
                }
                _ => break,
            }
        }
        match *self.peek() {
            TokenKind::Function => {
                let func = self.parse_function()?;
                Ok(ClassMember::Method {
                    func,
                    visibility,
                    is_static,
                })
            }
            TokenKind::Const => {
                self.bump();
                let name = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.parse_expr()?;
                self.end_stmt()?;
                Ok(ClassMember::Const { name, value })
            }
            TokenKind::Variable(name) => {
                self.bump();
                let default = if self.eat(&TokenKind::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.end_stmt()?;
                Ok(ClassMember::Property {
                    name,
                    default,
                    visibility,
                    is_static,
                })
            }
            _ => Err(self.unexpected("expected class member")),
        }
    }

    // ---- expressions ----

    fn parse_expr(&mut self) -> ParseResult<Expr> {
        self.parse_keyword_or()
    }

    fn parse_keyword_or(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_keyword_xor()?;
        while self.eat(&TokenKind::OrKw) {
            let rhs = self.parse_keyword_xor()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: BinOp::Or,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_keyword_xor(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_keyword_and()?;
        while self.eat(&TokenKind::XorKw) {
            let rhs = self.parse_keyword_and()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: BinOp::Xor,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_keyword_and(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_assignment()?;
        while self.eat(&TokenKind::AndKw) {
            let rhs = self.parse_assignment()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: BinOp::And,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_assignment(&mut self) -> ParseResult<Expr> {
        let lhs = self.parse_ternary()?;
        let op = match self.peek() {
            TokenKind::Assign => Some(AssignOp::Assign),
            TokenKind::DotAssign => Some(AssignOp::Concat),
            TokenKind::PlusAssign => Some(AssignOp::Add),
            TokenKind::MinusAssign => Some(AssignOp::Sub),
            TokenKind::StarAssign => Some(AssignOp::Mul),
            TokenKind::SlashAssign => Some(AssignOp::Div),
            TokenKind::PercentAssign => Some(AssignOp::Mod),
            TokenKind::CoalesceAssign => Some(AssignOp::Coalesce),
            _ => None,
        };
        let Some(op) = op else { return Ok(lhs) };
        self.bump();
        let by_ref = op == AssignOp::Assign && self.eat(&TokenKind::Amp);
        let value = self.nested(Self::parse_assignment)?; // right-associative
        let span = lhs.span.merge(value.span);
        Ok(Expr::new(
            ExprKind::Assign {
                target: Box::new(lhs),
                op,
                value: Box::new(value),
                by_ref,
            },
            span,
        ))
    }

    fn parse_ternary(&mut self) -> ParseResult<Expr> {
        let cond = self.parse_coalesce()?;
        if self.eat(&TokenKind::Question) {
            if self.eat(&TokenKind::Colon) {
                let otherwise = self.nested(Self::parse_assignment)?;
                let span = cond.span.merge(otherwise.span);
                return Ok(Expr::new(
                    ExprKind::Ternary {
                        cond: Box::new(cond),
                        then: None,
                        otherwise: Box::new(otherwise),
                    },
                    span,
                ));
            }
            let then = self.nested(Self::parse_assignment)?;
            self.expect(&TokenKind::Colon)?;
            let otherwise = self.nested(Self::parse_assignment)?;
            let span = cond.span.merge(otherwise.span);
            return Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then: Some(Box::new(then)),
                    otherwise: Box::new(otherwise),
                },
                span,
            ));
        }
        Ok(cond)
    }

    fn parse_coalesce(&mut self) -> ParseResult<Expr> {
        let lhs = self.parse_binary(0)?;
        if self.eat(&TokenKind::Coalesce) {
            let rhs = self.nested(Self::parse_coalesce)?; // right-associative
            let span = lhs.span.merge(rhs.span);
            return Ok(Expr::new(
                ExprKind::Binary {
                    op: BinOp::Coalesce,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            ));
        }
        Ok(lhs)
    }

    /// Precedence-climbing loop replacing the former eleven-deep
    /// recursive-descent ladder (`parse_or` .. `parse_multiplicative`):
    /// one recursion per *operator* instead of ten stack frames per
    /// operand. Left-associativity falls out of requiring strictly higher
    /// precedence (`prec + 1`) on the right-hand side.
    fn parse_binary(&mut self, min_prec: u8) -> ParseResult<Expr> {
        let mut lhs = self.parse_instanceof()?;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_instanceof(&mut self) -> ParseResult<Expr> {
        let lhs = self.parse_unary()?;
        if self.eat(&TokenKind::InstanceOf) {
            let class = self.parse_class_name()?;
            let span = lhs.span.merge(self.prev_span());
            return Ok(Expr::new(
                ExprKind::InstanceOf {
                    expr: Box::new(lhs),
                    class,
                },
                span,
            ));
        }
        Ok(lhs)
    }

    /// Every operand passes through here, so each parenthesised, call,
    /// array or unary level takes one nesting level.
    fn parse_unary(&mut self) -> ParseResult<Expr> {
        self.nested(Self::parse_unary_here)
    }

    fn parse_unary_here(&mut self) -> ParseResult<Expr> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Bang => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::Not,
                        expr: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                // fold negated numeric literals so `-1` is a literal, which
                // keeps printing canonical
                match e.kind {
                    ExprKind::Lit(Lit::Int(v)) if v != i64::MIN => {
                        Ok(Expr::new(ExprKind::Lit(Lit::Int(-v)), span))
                    }
                    ExprKind::Lit(Lit::Float(v)) => {
                        Ok(Expr::new(ExprKind::Lit(Lit::Float(-v)), span))
                    }
                    _ => Ok(Expr::new(
                        ExprKind::Unary {
                            op: UnOp::Neg,
                            expr: Box::new(e),
                        },
                        span,
                    )),
                }
            }
            TokenKind::Plus => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::Pos,
                        expr: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::Tilde => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::BitNot,
                        expr: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::At => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::ErrorSuppress(Box::new(e)), span))
            }
            TokenKind::Inc | TokenKind::Dec => {
                let inc = matches!(self.peek(), TokenKind::Inc);
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::IncDec {
                        pre: true,
                        inc,
                        target: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::LParen if self.cast_type().is_some() => {
                let ty = self.cast_type().expect("checked");
                self.bump(); // (
                self.bump(); // type
                self.bump(); // )
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(
                    ExprKind::Cast {
                        ty,
                        expr: Box::new(e),
                    },
                    span,
                ))
            }
            TokenKind::New => {
                self.bump();
                let class = match *self.peek() {
                    TokenKind::Variable(v) => {
                        self.bump();
                        Symbol::intern(&format!("${v}"))
                    }
                    _ => self.parse_class_name()?,
                };
                let args = if matches!(self.peek(), TokenKind::LParen) {
                    self.parse_args()?
                } else {
                    Vec::new()
                };
                let span = start.merge(self.prev_span());
                self.parse_postfix(Expr::new(ExprKind::New { class, args }, span))
            }
            TokenKind::Clone => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::Clone(Box::new(e)), span))
            }
            TokenKind::Print => {
                self.bump();
                let e = self.parse_expr()?;
                let span = start.merge(e.span);
                Ok(Expr::new(ExprKind::Print(Box::new(e)), span))
            }
            TokenKind::Include
            | TokenKind::IncludeOnce
            | TokenKind::Require
            | TokenKind::RequireOnce => {
                let kind = match self.bump().kind {
                    TokenKind::Include => IncludeKind::Include,
                    TokenKind::IncludeOnce => IncludeKind::IncludeOnce,
                    TokenKind::Require => IncludeKind::Require,
                    _ => IncludeKind::RequireOnce,
                };
                let path = self.parse_expr()?;
                let span = start.merge(path.span);
                Ok(Expr::new(
                    ExprKind::IncludeExpr {
                        kind,
                        path: Box::new(path),
                    },
                    span,
                ))
            }
            _ => self.parse_postfix_primary(),
        }
    }

    /// Recognizes `(int)`-style casts at the cursor without consuming.
    fn cast_type(&self) -> Option<CastType> {
        if !matches!(self.peek(), TokenKind::LParen) {
            return None;
        }
        let ty = match self.peek_at(1) {
            TokenKind::Ident(n) => match n.lower().as_str() {
                "int" | "integer" => CastType::Int,
                "float" | "double" | "real" => CastType::Float,
                "string" | "binary" => CastType::Str,
                "bool" | "boolean" => CastType::Bool,
                "object" => CastType::Object,
                _ => return None,
            },
            TokenKind::ArrayKw => CastType::Array,
            TokenKind::Unset => CastType::Unset,
            _ => return None,
        };
        if matches!(self.peek_at(2), TokenKind::RParen) {
            Some(ty)
        } else {
            None
        }
    }

    fn parse_postfix_primary(&mut self) -> ParseResult<Expr> {
        let primary = self.parse_primary()?;
        self.parse_postfix(primary)
    }

    /// Each suffix wraps the expression once more, so it takes one
    /// nesting level for the rest of the run, after its own index or
    /// arguments: a long `[0]`/`->a`/`->a()` chain fails at the suffix one
    /// level too deep. The run's levels are left when it ends.
    fn parse_postfix(&mut self, e: Expr) -> ParseResult<Expr> {
        let entered = self.depth;
        let out = self.parse_suffixes(e);
        self.depth = entered;
        out
    }

    fn parse_suffixes(&mut self, mut e: Expr) -> ParseResult<Expr> {
        loop {
            let open = self.span();
            match *self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = if matches!(self.peek(), TokenKind::RBracket) {
                        None
                    } else {
                        Some(Box::new(self.parse_expr()?))
                    };
                    self.expect(&TokenKind::RBracket)?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(
                        ExprKind::ArrayDim {
                            base: Box::new(e),
                            index,
                        },
                        span,
                    );
                }
                TokenKind::Arrow => {
                    self.bump();
                    let name = match *self.peek() {
                        TokenKind::Variable(v) => {
                            // dynamic property `$obj->$name`
                            self.bump();
                            Symbol::intern(&format!("${v}"))
                        }
                        _ => self.ident()?,
                    };
                    if matches!(self.peek(), TokenKind::LParen) {
                        let args = self.parse_args()?;
                        let span = e.span.merge(self.prev_span());
                        e = Expr::new(
                            ExprKind::MethodCall {
                                target: Box::new(e),
                                method: name,
                                args,
                            },
                            span,
                        );
                    } else {
                        let span = e.span.merge(self.prev_span());
                        e = Expr::new(
                            ExprKind::Prop {
                                base: Box::new(e),
                                name,
                            },
                            span,
                        );
                    }
                }
                TokenKind::DoubleColon => {
                    let class = match &e.kind {
                        ExprKind::Name(n) => *n,
                        ExprKind::Var(v) => Symbol::intern(&format!("${v}")),
                        _ => return Err(self.unexpected("expected class name before `::`")),
                    };
                    self.bump();
                    match *self.peek() {
                        TokenKind::Variable(v) => {
                            self.bump();
                            let span = e.span.merge(self.prev_span());
                            e = Expr::new(ExprKind::StaticProp { class, name: v }, span);
                        }
                        _ => {
                            let name = self.ident()?;
                            if matches!(self.peek(), TokenKind::LParen) {
                                let args = self.parse_args()?;
                                let span = e.span.merge(self.prev_span());
                                e = Expr::new(
                                    ExprKind::StaticCall {
                                        class,
                                        method: name,
                                        args,
                                    },
                                    span,
                                );
                            } else {
                                let span = e.span.merge(self.prev_span());
                                e = Expr::new(ExprKind::ClassConst { class, name }, span);
                            }
                        }
                    }
                }
                TokenKind::LParen => {
                    // only names, variables, and call-results are callable here
                    match e.kind {
                        ExprKind::Name(_)
                        | ExprKind::Var(_)
                        | ExprKind::Call { .. }
                        | ExprKind::MethodCall { .. }
                        | ExprKind::StaticCall { .. }
                        | ExprKind::ArrayDim { .. }
                        | ExprKind::Prop { .. }
                        | ExprKind::Closure(_) => {
                            let args = self.parse_args()?;
                            let span = e.span.merge(self.prev_span());
                            e = Expr::new(
                                ExprKind::Call {
                                    callee: Box::new(e),
                                    args,
                                },
                                span,
                            );
                        }
                        _ => return Ok(e),
                    }
                }
                TokenKind::Inc | TokenKind::Dec => {
                    // postfix only on lvalues
                    if !matches!(
                        e.kind,
                        ExprKind::Var(_)
                            | ExprKind::ArrayDim { .. }
                            | ExprKind::Prop { .. }
                            | ExprKind::StaticProp { .. }
                    ) {
                        return Ok(e);
                    }
                    let inc = matches!(self.peek(), TokenKind::Inc);
                    self.bump();
                    let span = e.span.merge(self.prev_span());
                    e = Expr::new(
                        ExprKind::IncDec {
                            pre: false,
                            inc,
                            target: Box::new(e),
                        },
                        span,
                    );
                }
                _ => return Ok(e),
            }
            self.deeper(open)?;
        }
    }

    fn parse_args(&mut self) -> ParseResult<Vec<Expr>> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                self.eat(&TokenKind::Amp); // by-ref at call site (PHP4 style)
                if self.eat(&TokenKind::Ellipsis) {
                    // spread: keep the inner expression
                    args.push(self.parse_expr()?);
                } else {
                    args.push(self.parse_expr()?);
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
                if matches!(self.peek(), TokenKind::RParen) {
                    break; // trailing comma
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> ParseResult<Expr> {
        let start = self.span();
        let kind = match *self.peek() {
            TokenKind::Variable(n) => {
                self.bump();
                ExprKind::Var(n)
            }
            TokenKind::Int(v) => {
                self.bump();
                ExprKind::Lit(Lit::Int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                ExprKind::Lit(Lit::Float(v))
            }
            TokenKind::SingleStr(_) | TokenKind::TemplateStr(_) | TokenKind::ShellStr(_) => {
                match self.bump().kind {
                    TokenKind::SingleStr(s) => ExprKind::Lit(Lit::Str(s)),
                    TokenKind::TemplateStr(parts) => template_to_expr(parts, start),
                    TokenKind::ShellStr(parts) => {
                        let inner = match template_to_expr(parts, start) {
                            ExprKind::Interp(es) => es,
                            lit => vec![Expr::new(lit, start)],
                        };
                        ExprKind::ShellExec(inner)
                    }
                    _ => unreachable!("peeked a string token"),
                }
            }
            TokenKind::True => {
                self.bump();
                ExprKind::Lit(Lit::Bool(true))
            }
            TokenKind::False => {
                self.bump();
                ExprKind::Lit(Lit::Bool(false))
            }
            TokenKind::Null => {
                self.bump();
                ExprKind::Lit(Lit::Null)
            }
            TokenKind::Ident(n) => {
                self.bump();
                ExprKind::Name(n)
            }
            TokenKind::Static if matches!(self.peek_at(1), TokenKind::DoubleColon) => {
                self.bump();
                ExprKind::Name("static".into())
            }
            TokenKind::Backslash => {
                // fully-qualified name \foo\bar — keep last segment
                let name = self.parse_class_name()?;
                ExprKind::Name(name)
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                return self.parse_postfix(e);
            }
            TokenKind::ArrayKw => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let items = self.parse_array_items(&TokenKind::RParen)?;
                self.expect(&TokenKind::RParen)?;
                ExprKind::Array(items)
            }
            TokenKind::LBracket => {
                self.bump();
                let items = self.parse_array_items(&TokenKind::RBracket)?;
                self.expect(&TokenKind::RBracket)?;
                ExprKind::Array(items)
            }
            TokenKind::ListKw => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let mut items = Vec::new();
                loop {
                    if matches!(self.peek(), TokenKind::Comma) {
                        items.push(None);
                        self.bump();
                        continue;
                    }
                    if matches!(self.peek(), TokenKind::RParen) {
                        break;
                    }
                    items.push(Some(self.parse_expr()?));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                ExprKind::List(items)
            }
            TokenKind::Isset => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let mut items = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    items.push(self.parse_expr()?);
                }
                self.expect(&TokenKind::RParen)?;
                ExprKind::Isset(items)
            }
            TokenKind::Empty => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                ExprKind::Empty(Box::new(e))
            }
            TokenKind::Exit => {
                self.bump();
                let arg = if self.eat(&TokenKind::LParen) {
                    let a = if matches!(self.peek(), TokenKind::RParen) {
                        None
                    } else {
                        Some(Box::new(self.parse_expr()?))
                    };
                    self.expect(&TokenKind::RParen)?;
                    a
                } else {
                    None
                };
                ExprKind::Exit(arg)
            }
            TokenKind::Function => {
                self.bump();
                let _by_ref = self.eat(&TokenKind::Amp);
                let params = self.parse_params()?;
                let mut uses = Vec::new();
                if self.eat(&TokenKind::Use) {
                    self.expect(&TokenKind::LParen)?;
                    loop {
                        let by_ref = self.eat(&TokenKind::Amp);
                        match self.bump().kind {
                            TokenKind::Variable(n) => uses.push((n, by_ref)),
                            _ => return Err(self.unexpected("expected variable in use clause")),
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                if self.eat(&TokenKind::Colon) {
                    self.eat(&TokenKind::Question);
                    self.parse_class_name()?;
                }
                self.expect(&TokenKind::LBrace)?;
                let body = self.parse_stmts_until(&TokenKind::RBrace)?;
                self.expect(&TokenKind::RBrace)?;
                ExprKind::Closure(Box::new(Closure { params, uses, body }))
            }
            TokenKind::Amp => {
                // stray by-ref marker in expression position (e.g. `=& new C`)
                self.bump();
                return self.parse_unary();
            }
            _ => return Err(self.unexpected("expected expression")),
        };
        Ok(Expr::new(kind, start.merge(self.prev_span())))
    }

    fn parse_array_items(&mut self, end: &TokenKind) -> ParseResult<Vec<ArrayItem>> {
        let mut items = Vec::new();
        while self.peek() != end {
            let by_ref = self.eat(&TokenKind::Amp);
            let first = self.parse_expr()?;
            if self.eat(&TokenKind::DoubleArrow) {
                let vref = self.eat(&TokenKind::Amp);
                let value = self.parse_expr()?;
                items.push(ArrayItem {
                    key: Some(first),
                    value,
                    by_ref: vref,
                });
            } else {
                items.push(ArrayItem {
                    key: None,
                    value: first,
                    by_ref,
                });
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }
}

enum AltEnd {
    /// Body ended normally (brace or single statement).
    None,
    /// Alternative syntax ended at the named keyword (not yet consumed).
    Keyword(#[allow(dead_code)] Symbol),
    /// Alternative syntax hit `else`/`elseif` (not yet consumed).
    ElseArm,
}

/// Converts lexer string parts into an expression: a plain literal when
/// there is no interpolation, otherwise an [`ExprKind::Interp`].
fn template_to_expr(mut parts: Vec<StrPart>, span: Span) -> ExprKind {
    if let [StrPart::Lit(_)] = parts.as_slice() {
        let Some(StrPart::Lit(s)) = parts.pop() else {
            unreachable!("one literal part")
        };
        return ExprKind::Lit(Lit::Str(s));
    }
    let exprs = parts
        .into_iter()
        .map(|p| match p {
            StrPart::Lit(s) => Expr::new(ExprKind::Lit(Lit::Str(s)), span),
            StrPart::Var(n) => Expr::new(ExprKind::Var(n), span),
            StrPart::Index(n, key) => {
                let index = match key {
                    IndexKey::Str(s) => Expr::new(ExprKind::Lit(Lit::Str(s)), span),
                    IndexKey::Int(i) => Expr::new(ExprKind::Lit(Lit::Int(i)), span),
                    IndexKey::Var(v) => Expr::new(ExprKind::Var(v), span),
                };
                Expr::new(
                    ExprKind::ArrayDim {
                        base: Box::new(Expr::new(ExprKind::Var(n), span)),
                        index: Some(Box::new(index)),
                    },
                    span,
                )
            }
            StrPart::Prop(n, p) => Expr::new(
                ExprKind::Prop {
                    base: Box::new(Expr::new(ExprKind::Var(n), span)),
                    name: p,
                },
                span,
            ),
        })
        .collect();
    ExprKind::Interp(exprs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"))
    }

    fn first_expr(src: &str) -> Expr {
        let p = parse_ok(src);
        for s in p.stmts {
            if let StmtKind::Expr(e) = s.kind {
                return e;
            }
        }
        panic!("no expression statement");
    }

    #[test]
    fn parse_assignment_from_superglobal() {
        let e = first_expr("<?php $id = $_GET['id'];");
        match e.kind {
            ExprKind::Assign {
                target,
                value,
                op,
                by_ref,
            } => {
                assert_eq!(op, AssignOp::Assign);
                assert!(!by_ref);
                assert_eq!(target.as_var_name(), Some("id"));
                match value.kind {
                    ExprKind::ArrayDim { base, index } => {
                        assert_eq!(base.as_var_name(), Some("_GET"));
                        assert_eq!(index.unwrap().as_str_lit(), Some("id"));
                    }
                    other => panic!("unexpected value {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_call_with_interpolated_query() {
        let e = first_expr(r#"<?php mysql_query("SELECT * FROM u WHERE id = $id");"#);
        match e.kind {
            ExprKind::Call { callee, args } => {
                assert!(matches!(callee.kind, ExprKind::Name(ref n) if n == "mysql_query"));
                assert_eq!(args.len(), 1);
                assert!(matches!(args[0].kind, ExprKind::Interp(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_concat_precedence() {
        // "a" . $b . "c" groups left
        let e = first_expr(r#"<?php $q = 'a' . $b . 'c';"#);
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        let ExprKind::Binary { op, lhs, .. } = value.kind else {
            panic!()
        };
        assert_eq!(op, BinOp::Concat);
        assert!(matches!(
            lhs.kind,
            ExprKind::Binary {
                op: BinOp::Concat,
                ..
            }
        ));
    }

    #[test]
    fn parse_if_elseif_else() {
        let p = parse_ok("<?php if ($a) { f(); } elseif ($b) g(); else { h(); }");
        let StmtKind::If {
            elseifs,
            else_branch,
            ..
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(elseifs.len(), 1);
        assert!(else_branch.is_some());
    }

    #[test]
    fn parse_else_if_two_words() {
        let p = parse_ok("<?php if ($a) f(); else if ($b) g();");
        let StmtKind::If {
            elseifs,
            else_branch,
            ..
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(elseifs.len(), 1);
        assert!(else_branch.is_none());
    }

    #[test]
    fn parse_alternative_if_syntax() {
        let p = parse_ok("<?php if ($a): ?><b>hi</b><?php endif; ?>");
        let StmtKind::If { then_branch, .. } = &p.stmts[0].kind else {
            panic!("{:?}", p.stmts[0])
        };
        assert!(then_branch
            .iter()
            .any(|s| matches!(s.kind, StmtKind::InlineHtml(_))));
    }

    #[test]
    fn parse_alternative_if_else() {
        let p = parse_ok("<?php if ($a): f(); else: g(); endif;");
        let StmtKind::If { else_branch, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(else_branch.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn parse_loops() {
        parse_ok("<?php while ($r = fetch()) { echo $r; }");
        parse_ok("<?php do { $i++; } while ($i < 10);");
        parse_ok("<?php for ($i = 0; $i < 10; $i++) echo $i;");
        parse_ok("<?php foreach ($rows as $k => $v) { echo $v; }");
        parse_ok("<?php foreach ($rows as $v) echo $v;");
        parse_ok("<?php foreach ($rows as &$v) $v = 1;");
        parse_ok("<?php while ($x): f(); endwhile;");
        parse_ok("<?php foreach ($a as $b): f(); endforeach;");
        parse_ok("<?php for (;;) break;");
    }

    #[test]
    fn parse_switch() {
        let p = parse_ok("<?php switch ($a) { case 1: f(); break; case 'x': default: g(); }");
        let StmtKind::Switch { cases, .. } = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(cases.len(), 3);
        assert!(cases[2].test.is_none());
        assert!(cases[1].body.is_empty()); // fallthrough
    }

    #[test]
    fn parse_function_decl() {
        let p = parse_ok(
            "<?php function sanitize($input, $mode = 'html', &$out = null) { return $input; }",
        );
        let StmtKind::Function(f) = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(f.name, "sanitize");
        assert_eq!(f.params.len(), 3);
        assert!(f.params[2].by_ref);
        assert!(f.params[1].default.is_some());
    }

    #[test]
    fn parse_typed_and_variadic_params() {
        let p = parse_ok("<?php function f(array $a, ?MyClass $b, ...$rest) {}");
        let StmtKind::Function(f) = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(f.params[0].ty.as_deref(), Some("array"));
        assert_eq!(f.params[1].ty.as_deref(), Some("?MyClass"));
        assert!(f.params[2].variadic);
    }

    #[test]
    fn parse_class_with_members() {
        let p = parse_ok(
            "<?php class Repo extends Base implements A, B {
                public $db;
                private static $cache = array();
                const LIMIT = 10;
                public function find($id) { return $this->db->query($id); }
                static function make() { return new Repo(); }
            }",
        );
        let StmtKind::Class(c) = &p.stmts[0].kind else {
            panic!()
        };
        assert_eq!(c.name, "Repo");
        assert_eq!(c.parent.map(Symbol::as_str), Some("Base"));
        let ifaces: Vec<_> = c.interfaces.iter().map(|s| s.as_str()).collect();
        assert_eq!(ifaces, vec!["A", "B"]);
        assert_eq!(c.members.len(), 5);
        assert!(c.method("find").is_some());
    }

    #[test]
    fn parse_method_and_static_calls() {
        let e = first_expr("<?php $wpdb->query($sql);");
        assert!(matches!(e.kind, ExprKind::MethodCall { ref method, .. } if method == "query"));
        let e = first_expr("<?php DB::run($sql);");
        assert!(
            matches!(e.kind, ExprKind::StaticCall { ref class, ref method, .. } if class == "DB" && method == "run")
        );
    }

    #[test]
    fn parse_chained_calls() {
        let e = first_expr("<?php $db->table('users')->where($x)->get();");
        assert!(matches!(e.kind, ExprKind::MethodCall { ref method, .. } if method == "get"));
    }

    #[test]
    fn parse_new_with_and_without_args() {
        let e = first_expr("<?php $m = new MongoClient('localhost');");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::New { ref class, .. } if class == "MongoClient"));
        let e = first_expr("<?php $x = new Foo;");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::New { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn parse_ternaries() {
        let e = first_expr("<?php $x = isset($_GET['p']) ? $_GET['p'] : 1;");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(
            value.kind,
            ExprKind::Ternary { then: Some(_), .. }
        ));
        let e = first_expr("<?php $x = $a ?: 'd';");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::Ternary { then: None, .. }));
    }

    #[test]
    fn parse_coalesce_right_assoc() {
        let e = first_expr("<?php $x = $a ?? $b ?? 'd';");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Coalesce,
            rhs,
            ..
        } = value.kind
        else {
            panic!()
        };
        assert!(matches!(
            rhs.kind,
            ExprKind::Binary {
                op: BinOp::Coalesce,
                ..
            }
        ));
    }

    #[test]
    fn parse_casts() {
        let e = first_expr("<?php $id = (int)$_GET['id'];");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(
            value.kind,
            ExprKind::Cast {
                ty: CastType::Int,
                ..
            }
        ));
        // a parenthesized expression is not a cast
        let e = first_expr("<?php $x = ($y);");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::Var(_)));
    }

    #[test]
    fn parse_isset_empty_exit() {
        parse_ok("<?php if (isset($_GET['a'], $_GET['b'])) exit('no');");
        parse_ok("<?php if (empty($x)) die();");
        parse_ok("<?php exit;");
    }

    #[test]
    fn parse_arrays_and_lists() {
        let e = first_expr("<?php $a = array('k' => 1, 2, &$v);");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        let ExprKind::Array(items) = value.kind else {
            panic!()
        };
        assert_eq!(items.len(), 3);
        assert!(items[0].key.is_some());
        assert!(items[2].by_ref);
        parse_ok("<?php $a = ['x', 'y'];");
        parse_ok("<?php list($a, , $b) = explode(',', $s);");
    }

    #[test]
    fn parse_closure_with_use() {
        let e = first_expr("<?php $f = function ($x) use (&$acc, $db) { return $db->q($x); };");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        let ExprKind::Closure(closure) = value.kind else {
            panic!()
        };
        let Closure { uses, params, .. } = *closure;
        assert_eq!(params.len(), 1);
        assert_eq!(uses.len(), 2);
        assert!(uses[0].1);
    }

    #[test]
    fn parse_include_forms() {
        let p = parse_ok("<?php include 'header.php'; require_once($_GET['page']);");
        assert!(matches!(
            p.stmts[0].kind,
            StmtKind::Include {
                kind: IncludeKind::Include,
                ..
            }
        ));
        let StmtKind::Include { kind, path } = &p.stmts[1].kind else {
            panic!()
        };
        assert_eq!(*kind, IncludeKind::RequireOnce);
        // require_once(expr) parses the parenthesized expression as path
        assert!(path.root_var().is_some() || matches!(path.kind, ExprKind::ArrayDim { .. }));
    }

    #[test]
    fn parse_global_and_static_vars() {
        let p = parse_ok("<?php function f() { global $db, $cfg; static $n = 0; }");
        let StmtKind::Function(f) = &p.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(&f.body[0].kind, StmtKind::Global(g) if g.len() == 2));
        assert!(matches!(&f.body[1].kind, StmtKind::StaticVars(v) if v.len() == 1));
    }

    #[test]
    fn parse_try_catch_finally() {
        let p = parse_ok(
            "<?php try { risky(); } catch (PDOException | RuntimeException $e) { log($e); } finally { cleanup(); }",
        );
        let StmtKind::Try {
            catches, finally, ..
        } = &p.stmts[0].kind
        else {
            panic!()
        };
        assert_eq!(catches[0].types.len(), 2);
        assert!(finally.is_some());
    }

    #[test]
    fn parse_error_suppression_and_incdec() {
        parse_ok("<?php $r = @mysql_query($q); $i++; --$j; $a[$i]++;");
    }

    #[test]
    fn parse_keyword_logic_ops() {
        let e = first_expr("<?php $ok = $a and $b;");
        // `and` binds looser than `=`: ($ok = $a) and $b
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn parse_html_interleaved() {
        let p = parse_ok("<h1>Title</h1><?php echo $x; ?><footer>");
        assert!(matches!(p.stmts[0].kind, StmtKind::InlineHtml(_)));
        assert!(matches!(p.stmts[1].kind, StmtKind::Echo(_)));
        assert!(matches!(p.stmts[2].kind, StmtKind::InlineHtml(_)));
    }

    #[test]
    fn parse_short_echo() {
        let p = parse_ok("<ul><?= $_GET['q'] ?></ul>");
        assert!(matches!(p.stmts[1].kind, StmtKind::Echo(_)));
    }

    #[test]
    fn parse_namespace_and_use_ignored() {
        let p = parse_ok("<?php namespace App\\Models; use PDO; use Foo\\Bar as Baz; $x = 1;");
        assert!(p.stmts.iter().any(|s| matches!(s.kind, StmtKind::Expr(_))));
    }

    #[test]
    fn parse_heredoc_statement() {
        let p = parse_ok("<?php $q = <<<SQL\nSELECT * FROM t WHERE id = $id\nSQL;\n");
        assert_eq!(p.stmts.len(), 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("<?php if ($a { }").is_err());
        assert!(parse("<?php $x = ;").is_err());
        assert!(parse("<?php function () {}").is_ok()); // closure expr... missing semi
    }

    #[test]
    fn parse_error_has_location() {
        let err = parse("<?php\n\n$x = ;").unwrap_err();
        assert_eq!(err.span().line(), 3);
    }

    /// Each nested construct takes one level; past `MAX_NESTING` the
    /// parse fails at the token opening the level too many, long before
    /// any stack runs out.
    #[test]
    fn nesting_past_the_limit_fails_at_the_opening_token() {
        let nest = |open: &str, close: &str, n: usize| {
            format!("<?php $x = {}1{};", open.repeat(n), close.repeat(n))
        };
        for (open, close) in [
            ("(", ")"),
            ("f(", ")"),
            ("[", "]"),
            ("!", ""),
            ("$a = ", ""),
        ] {
            // the statement and `$x = ` take two levels
            let fits = nest(open, close, MAX_NESTING - 3);
            assert!(parse(&fits).is_ok(), "{open} nested {}", MAX_NESTING - 3);
            for n in [MAX_NESTING, 5_000] {
                let src = nest(open, close, n);
                let err = parse(&src).unwrap_err();
                assert!(err.message().contains("nesting"), "{}", err.message());
                let at = err.span().start() as usize;
                assert!(src[at..].starts_with(open), "{open}: error at {at}");
            }
        }
        let ifs = |n: usize| format!("<?php {} echo 1; {}", "if ($a) {".repeat(n), "}".repeat(n));
        assert!(parse(&ifs(MAX_NESTING / 2)).is_ok());
        // the last level goes to the `MAX_NESTING`th `if`, so its
        // condition is the first token too deep
        let src = ifs(6_000);
        let at = parse(&src).unwrap_err().span().start() as usize;
        assert!(src[at..].starts_with("$a"));
        assert_eq!((at - "<?php ".len()) / "if ($a) {".len(), MAX_NESTING - 1);
        // a left-associative chain is not nesting
        let chain = format!("<?php $x = 1{};", " . 1".repeat(5_000));
        assert!(parse(&chain).is_ok());
    }

    /// Each postfix suffix takes one level for the rest of its run, and
    /// the run's levels are left when it ends.
    #[test]
    fn postfix_runs_take_one_level_per_suffix() {
        for suffix in ["[0]", "->a", "->a()"] {
            let run = |n: usize| format!("$a{}", suffix.repeat(n));
            // two runs side by side each fit; one twice as long does not
            let fits = format!("<?php $x = {} . {};", run(200), run(200));
            assert!(parse(&fits).is_ok(), "{suffix}");
            let src = format!("<?php $x = {};", run(400));
            let err = parse(&src).unwrap_err();
            assert!(err.message().contains("nesting"), "{}", err.message());
        }
    }

    #[test]
    fn parse_static_prop_and_class_const() {
        let e = first_expr("<?php $x = Config::$instance;");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::StaticProp { .. }));
        let e = first_expr("<?php $x = Repo::LIMIT;");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::ClassConst { .. }));
    }

    #[test]
    fn parse_assign_by_ref() {
        let e = first_expr("<?php $a =& $b;");
        assert!(matches!(e.kind, ExprKind::Assign { by_ref: true, .. }));
    }

    #[test]
    fn parse_instanceof() {
        let e = first_expr("<?php $ok = $e instanceof PDOException;");
        let ExprKind::Assign { value, .. } = e.kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::InstanceOf { .. }));
    }

    #[test]
    fn parse_nested_function_calls() {
        let p = parse_ok("<?php echo htmlentities(trim($_POST['c']));");
        let StmtKind::Echo(items) = &p.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Call { args, .. } = &items[0].kind else {
            panic!()
        };
        assert!(matches!(args[0].kind, ExprKind::Call { .. }));
    }

    #[test]
    fn parse_realistic_file() {
        let src = r#"<?php
include 'config.php';
$conn = mysql_connect($host, $user, $pass);
function get_user($db, $id) {
    $q = "SELECT * FROM users WHERE id = '" . $id . "'";
    return mysql_query($q, $db);
}
if (isset($_GET['id'])) {
    $id = $_GET['id'];
    $res = get_user($conn, $id);
    while ($row = mysql_fetch_assoc($res)) {
        echo "<tr><td>" . $row['name'] . "</td></tr>";
    }
} else {
    header("Location: index.php?err=" . urlencode('missing id'));
    exit;
}
?>
<html><body>done</body></html>
"#;
        let p = parse_ok(src);
        assert!(p.stmts.len() >= 4);
        assert_eq!(p.functions().len(), 1);
    }
}

#[cfg(test)]
mod shell_exec_tests {
    use super::*;

    #[test]
    fn parse_backtick_shell_exec() {
        let p = parse(r#"<?php $out = `ls -la $dir`;"#).unwrap();
        let StmtKind::Expr(e) = &p.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Assign { value, .. } = &e.kind else {
            panic!()
        };
        let ExprKind::ShellExec(parts) = &value.kind else {
            panic!("{value:?}")
        };
        assert!(parts
            .iter()
            .any(|p| matches!(p.kind, ExprKind::Var(ref n) if n == "dir")));
    }

    #[test]
    fn parse_literal_backtick() {
        let p = parse(r#"<?php `whoami`;"#).unwrap();
        let StmtKind::Expr(e) = &p.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::ShellExec(_)));
    }

    #[test]
    fn backtick_round_trips() {
        use crate::printer::print_program;
        for src in [r#"<?php $out = `ls $dir`;"#, r#"<?php `uptime`;"#] {
            let p1 = parse(src).unwrap();
            let printed = print_program(&p1);
            let p2 = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
            assert_eq!(printed, print_program(&p2));
        }
    }
}
