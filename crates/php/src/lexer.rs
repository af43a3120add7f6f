//! Hand-written PHP lexer.
//!
//! Handles the mixed HTML/PHP structure of web application source files:
//! text outside `<?php ... ?>` regions becomes [`TokenKind::InlineHtml`],
//! `<?=` opens an echo region, and within PHP mode the lexer understands
//! single-quoted strings, double-quoted strings *with interpolation*
//! (decomposed into [`StrPart`]s so taint can flow through string
//! construction), heredoc/nowdoc, comments, and the full operator set used
//! by the parser.

use crate::error::{ParseError, ParseResult};
use crate::intern::Symbol;
use crate::span::Span;
use crate::token::{IndexKey, StrPart, Token, TokenKind};

/// Tokenizes a full PHP source file (which may contain inline HTML).
///
/// # Errors
///
/// Returns a [`ParseError`] for unterminated strings/comments/heredocs and
/// characters that cannot start any token.
///
/// # Examples
///
/// ```
/// use wap_php::lexer::tokenize;
/// let tokens = tokenize("<?php echo $x; ?>")?;
/// assert!(tokens.len() >= 3);
/// # Ok::<(), wap_php::ParseError>(())
/// ```
pub fn tokenize(src: &str) -> ParseResult<Vec<Token>> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> ParseResult<Vec<Token>> {
        self.lex_html()?;
        let end = self.src.len() as u32;
        self.tokens
            .push(Token::new(TokenKind::Eof, Span::new(end, end, self.line)));
        Ok(self.tokens)
    }

    // ---- low-level helpers ----

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos.min(self.bytes.len())..].starts_with(s.as_bytes())
    }

    /// Case-insensitive prefix check (for `<?PHP` and friends).
    fn starts_with_ci(&self, s: &str) -> bool {
        let rest = &self.bytes[self.pos.min(self.bytes.len())..];
        rest.len() >= s.len()
            && rest
                .iter()
                .zip(s.as_bytes())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.tokens.push(Token::new(
            kind,
            Span::new(start as u32, self.pos as u32, line),
        ));
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, Span::new(self.pos as u32, self.pos as u32, self.line))
    }

    // ---- HTML mode ----

    fn lex_html(&mut self) -> ParseResult<()> {
        loop {
            let start = self.pos;
            let line = self.line;
            while self.pos < self.bytes.len() {
                if self.starts_with_ci("<?php") || self.starts_with("<?=") {
                    break;
                }
                self.bump();
            }
            if self.pos > start {
                let text = self.src[start..self.pos].to_string();
                self.push(TokenKind::InlineHtml(text), start, line);
            }
            if self.pos >= self.bytes.len() {
                return Ok(());
            }
            // at an opening tag
            let tag_start = self.pos;
            let tag_line = self.line;
            if self.starts_with("<?=") {
                self.advance(3);
                self.push(TokenKind::Echo, tag_start, tag_line);
            } else {
                self.advance(5); // <?php
            }
            self.lex_php()?;
            if self.pos >= self.bytes.len() {
                return Ok(());
            }
        }
    }

    // ---- PHP mode ----

    /// Lexes PHP tokens until `?>` or end of input.
    fn lex_php(&mut self) -> ParseResult<()> {
        loop {
            self.skip_trivia()?;
            if self.pos >= self.bytes.len() {
                return Ok(());
            }
            if self.starts_with("?>") {
                // close tag implies a statement terminator in PHP — but only
                // when one is actually needed (after an unterminated
                // expression statement)
                let start = self.pos;
                let line = self.line;
                self.advance(2);
                // swallow one newline directly after ?>, as PHP does
                if self.peek() == Some(b'\n') {
                    self.bump();
                }
                let needs_semi = !matches!(
                    self.tokens.last().map(|t| &t.kind),
                    None | Some(
                        TokenKind::Semi
                            | TokenKind::LBrace
                            | TokenKind::RBrace
                            | TokenKind::Colon
                            | TokenKind::InlineHtml(_)
                    )
                );
                if needs_semi {
                    self.push(TokenKind::Semi, start, line);
                }
                return Ok(());
            }
            self.lex_token()?;
        }
    }

    fn skip_trivia(&mut self) -> ParseResult<()> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => self.skip_line_comment(),
                Some(b'#') => self.skip_line_comment(),
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    self.advance(2);
                    loop {
                        if self.pos >= self.bytes.len() {
                            return Err(self.err("unterminated block comment"));
                        }
                        if self.starts_with("*/") {
                            self.advance(2);
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn skip_line_comment(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'\n' || self.starts_with("?>") {
                break;
            }
            self.bump();
        }
    }

    fn lex_token(&mut self) -> ParseResult<()> {
        let start = self.pos;
        let line = self.line;
        let b = self.peek().expect("lex_token called at eof");
        match b {
            b'$' => {
                self.bump();
                let name = self.scan_ident_sym();
                if name.is_empty() {
                    return Err(self.err("expected variable name after `$`"));
                }
                self.push(TokenKind::Variable(name), start, line);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let text = self.scan_ident_slice();
                let kind = TokenKind::keyword_bytes(text.as_bytes())
                    .unwrap_or_else(|| TokenKind::Ident(Symbol::intern(text)));
                self.push(kind, start, line);
            }
            b'0'..=b'9' => {
                let kind = self.scan_number()?;
                self.push(kind, start, line);
            }
            b'\'' => {
                let s = self.scan_single_quoted()?;
                self.push(TokenKind::SingleStr(s), start, line);
            }
            b'"' => {
                let parts = self.scan_double_quoted()?;
                self.push(TokenKind::TemplateStr(parts), start, line);
            }
            b'<' if self.starts_with("<<<") => {
                let parts = self.scan_heredoc()?;
                self.push(TokenKind::TemplateStr(parts), start, line);
            }
            b'`' => {
                self.bump(); // opening backtick
                let parts = self.scan_interpolated(
                    |lx| lx.peek() == Some(b'`'),
                    "unterminated shell-exec string",
                )?;
                self.bump(); // closing backtick
                self.push(TokenKind::ShellStr(parts), start, line);
            }
            _ => {
                let kind = self.scan_operator()?;
                self.push(kind, start, line);
            }
        }
        Ok(())
    }

    /// Scans an identifier and returns the source slice — no allocation.
    /// Identifier bytes never include `\n`, so no line tracking is needed.
    fn scan_ident_slice(&mut self) -> &'s str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    /// Scans an identifier straight into the interner: repeated names cost
    /// one hash lookup and zero allocations.
    fn scan_ident_sym(&mut self) -> Symbol {
        let text = self.scan_ident_slice();
        if text.is_empty() {
            Symbol::empty()
        } else {
            Symbol::intern(text)
        }
    }

    fn scan_ident_text(&mut self) -> String {
        self.scan_ident_slice().to_string()
    }

    fn scan_number(&mut self) -> ParseResult<TokenKind> {
        let start = self.pos;
        if self.starts_with("0x") || self.starts_with("0X") {
            self.advance(2);
            let hs = self.pos;
            while matches!(self.peek(), Some(b) if b.is_ascii_hexdigit()) {
                self.bump();
            }
            let v = i64::from_str_radix(&self.src[hs..self.pos], 16)
                .map_err(|_| self.err("invalid hex literal"))?;
            return Ok(TokenKind::Int(v));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(b'0'..=b'9')) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E'))
            && matches!(self.peek_at(1), Some(b'0'..=b'9' | b'+' | b'-'))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| self.err("invalid float literal"))
        } else {
            // overflowing integers degrade to float, like PHP
            match text.parse::<i64>() {
                Ok(v) => Ok(TokenKind::Int(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(TokenKind::Float)
                    .map_err(|_| self.err("invalid integer literal")),
            }
        }
    }

    fn scan_single_quoted(&mut self) -> ParseResult<String> {
        self.bump(); // opening '
                     // Fast path: no escapes before the closing quote — one bulk copy of
                     // the source slice instead of a char-at-a-time rebuild.
        let start = self.pos;
        let mut p = self.pos;
        while p < self.bytes.len() {
            match self.bytes[p] {
                b'\'' => {
                    let out = self.src[start..p].to_string();
                    self.line +=
                        self.bytes[start..p].iter().filter(|&&b| b == b'\n').count() as u32;
                    self.pos = p + 1; // past the closing quote
                    return Ok(out);
                }
                b'\\' => break,
                _ => p += 1,
            }
        }
        if p >= self.bytes.len() {
            return Err(self.err("unterminated single-quoted string"));
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated single-quoted string")),
                Some(b'\'') => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.bump();
                    match self.bump() {
                        Some(b'\'') => out.push('\''),
                        Some(b'\\') => out.push('\\'),
                        Some(other) => {
                            // PHP keeps unknown escapes literally
                            out.push('\\');
                            out.push(other as char);
                        }
                        None => return Err(self.err("unterminated single-quoted string")),
                    }
                }
                Some(b) if b.is_ascii() => {
                    self.bump();
                    out.push(b as char);
                }
                Some(_) => {
                    // copy a full UTF-8 scalar
                    match self.src.get(self.pos..).and_then(|r| r.chars().next()) {
                        Some(ch) => {
                            for _ in 0..ch.len_utf8() {
                                self.bump();
                            }
                            out.push(ch);
                        }
                        None => {
                            let b = self.bump().expect("in bounds");
                            out.push(b as char);
                        }
                    }
                }
            }
        }
    }

    fn scan_double_quoted(&mut self) -> ParseResult<Vec<StrPart>> {
        self.bump(); // opening "
        self.scan_interpolated(
            |lx| lx.peek() == Some(b'"'),
            "unterminated double-quoted string",
        )
        .inspect(|_| {
            self.bump(); // closing "
        })
    }

    /// Scans interpolated string content until `is_end` returns true.
    /// Does not consume the terminator.
    fn scan_interpolated(
        &mut self,
        is_end: impl Fn(&Self) -> bool,
        unterminated: &str,
    ) -> ParseResult<Vec<StrPart>> {
        let mut parts: Vec<StrPart> = Vec::new();
        let mut lit = String::new();
        macro_rules! flush {
            () => {
                if !lit.is_empty() {
                    parts.push(StrPart::Lit(std::mem::take(&mut lit)));
                }
            };
        }
        loop {
            if is_end(self) {
                flush!();
                if parts.is_empty() {
                    parts.push(StrPart::Lit(String::new()));
                }
                return Ok(parts);
            }
            if self.pos >= self.bytes.len() {
                return Err(self.err(unterminated));
            }
            let b = self.peek().expect("checked above");
            match b {
                b'\\' => {
                    self.bump();
                    match self.bump() {
                        Some(b'n') => lit.push('\n'),
                        Some(b't') => lit.push('\t'),
                        Some(b'r') => lit.push('\r'),
                        Some(b'"') => lit.push('"'),
                        Some(b'\\') => lit.push('\\'),
                        Some(b'$') => lit.push('$'),
                        Some(b'0') => lit.push('\0'),
                        Some(other) => {
                            lit.push('\\');
                            lit.push(other as char);
                        }
                        None => return Err(self.err(unterminated)),
                    }
                }
                b'$' if matches!(self.peek_at(1), Some(c) if c.is_ascii_alphabetic() || c == b'_') =>
                {
                    self.bump();
                    let name = self.scan_ident_sym();
                    flush!();
                    parts.push(self.scan_simple_interp_suffix(name)?);
                }
                b'{' if self.peek_at(1) == Some(b'$') => {
                    self.advance(2);
                    let name = self.scan_ident_sym();
                    if name.is_empty() {
                        return Err(self.err("expected variable in `{$...}` interpolation"));
                    }
                    flush!();
                    let part = self.scan_braced_interp_suffix(name)?;
                    if self.bump() != Some(b'}') {
                        return Err(self.err("expected `}` to close interpolation"));
                    }
                    parts.push(part);
                }
                _ => {
                    // copy a full UTF-8 scalar when aligned; fall back to a
                    // byte if an escape left us mid-character
                    match self.src.get(self.pos..).and_then(|r| r.chars().next()) {
                        Some(ch) => {
                            for _ in 0..ch.len_utf8() {
                                self.bump();
                            }
                            lit.push(ch);
                        }
                        None => {
                            let b = self.bump().expect("in bounds");
                            lit.push(b as char);
                        }
                    }
                }
            }
        }
    }

    /// After `$name` inside a string: optional `[key]` or `->prop`.
    fn scan_simple_interp_suffix(&mut self, name: Symbol) -> ParseResult<StrPart> {
        if self.peek() == Some(b'[') {
            self.bump();
            let key = match self.peek() {
                Some(b'$') => {
                    self.bump();
                    IndexKey::Var(self.scan_ident_sym())
                }
                Some(b'0'..=b'9') => {
                    let s = self.pos;
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.bump();
                    }
                    IndexKey::Int(
                        self.src[s..self.pos]
                            .parse()
                            .map_err(|_| self.err("bad index"))?,
                    )
                }
                Some(b'\'') => {
                    let s = self.scan_single_quoted()?;
                    IndexKey::Str(s)
                }
                _ => IndexKey::Str(self.scan_ident_text()),
            };
            if self.bump() != Some(b']') {
                return Err(self.err("expected `]` in string interpolation"));
            }
            Ok(StrPart::Index(name, key))
        } else if self.starts_with("->")
            && matches!(self.peek_at(2), Some(c) if c.is_ascii_alphabetic() || c == b'_')
        {
            self.advance(2);
            let prop = self.scan_ident_sym();
            Ok(StrPart::Prop(name, prop))
        } else {
            Ok(StrPart::Var(name))
        }
    }

    /// After `{$name` inside a string: optional `['key']`, `[num]`, `[$v]`,
    /// or `->prop`, then the caller consumes the closing `}`.
    fn scan_braced_interp_suffix(&mut self, name: Symbol) -> ParseResult<StrPart> {
        if self.peek() == Some(b'[') {
            self.bump();
            let key = match self.peek() {
                Some(b'\'') => IndexKey::Str(self.scan_single_quoted()?),
                Some(b'"') => {
                    let parts = self.scan_double_quoted()?;
                    let mut s = String::new();
                    for p in parts {
                        if let StrPart::Lit(t) = p {
                            s.push_str(&t);
                        }
                    }
                    IndexKey::Str(s)
                }
                Some(b'$') => {
                    self.bump();
                    IndexKey::Var(self.scan_ident_sym())
                }
                Some(b'0'..=b'9') => {
                    let s = self.pos;
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.bump();
                    }
                    IndexKey::Int(
                        self.src[s..self.pos]
                            .parse()
                            .map_err(|_| self.err("bad index"))?,
                    )
                }
                _ => IndexKey::Str(self.scan_ident_text()),
            };
            if self.bump() != Some(b']') {
                return Err(self.err("expected `]` in `{$...}` interpolation"));
            }
            Ok(StrPart::Index(name, key))
        } else if self.starts_with("->") {
            self.advance(2);
            let prop = self.scan_ident_sym();
            Ok(StrPart::Prop(name, prop))
        } else {
            Ok(StrPart::Var(name))
        }
    }

    fn scan_heredoc(&mut self) -> ParseResult<Vec<StrPart>> {
        self.advance(3); // <<<
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
        let nowdoc = self.peek() == Some(b'\'');
        let quoted = nowdoc || self.peek() == Some(b'"');
        if quoted {
            self.bump();
        }
        let label = self.scan_ident_text();
        if label.is_empty() {
            return Err(self.err("expected heredoc label"));
        }
        if quoted {
            self.bump(); // closing quote
        }
        if self.bump() != Some(b'\n') {
            // allow \r\n
            if self.peek() == Some(b'\n') {
                self.bump();
            } else {
                return Err(self.err("expected newline after heredoc label"));
            }
        }
        // find terminator line: optional whitespace + label + optional ; at line start
        let body_start = self.pos;
        let mut body_end = None;
        let mut search = self.pos;
        let bytes = self.bytes;
        while search < bytes.len() {
            // `search` is at a line start
            let mut p = search;
            while p < bytes.len() && matches!(bytes[p], b' ' | b'\t') {
                p += 1;
            }
            if bytes[p..].starts_with(label.as_bytes()) {
                let after = p + label.len();
                let term_ok = matches!(
                    bytes.get(after),
                    None | Some(b';' | b'\n' | b'\r' | b',' | b')')
                );
                if term_ok {
                    body_end = Some((search, p + label.len()));
                    break;
                }
            }
            // advance to the next line
            while search < bytes.len() && bytes[search] != b'\n' {
                search += 1;
            }
            search += 1;
        }
        let (body_end, label_end) = body_end.ok_or_else(|| self.err("unterminated heredoc"))?;
        let body = &self.src[body_start..body_end];
        // drop the trailing newline that belongs to the terminator line
        let body = body.strip_suffix('\n').unwrap_or(body);
        let body = body.strip_suffix('\r').unwrap_or(body);
        let parts = if nowdoc {
            vec![StrPart::Lit(body.to_string())]
        } else {
            let mut sub = Lexer::new(body);
            sub.scan_interpolated(|lx| lx.pos >= lx.bytes.len(), "unterminated heredoc")?
        };
        // advance the real cursor past the body and the terminator label
        while self.pos < label_end {
            self.bump();
        }
        Ok(parts)
    }

    fn scan_operator(&mut self) -> ParseResult<TokenKind> {
        macro_rules! op {
            ($len:expr, $kind:expr) => {{
                self.advance($len);
                return Ok($kind);
            }};
        }
        // three-byte operators first
        if self.starts_with("===") {
            op!(3, TokenKind::Identical);
        }
        if self.starts_with("!==") {
            op!(3, TokenKind::NotIdentical);
        }
        if self.starts_with("<=>") {
            op!(3, TokenKind::Spaceship);
        }
        if self.starts_with("**=") {
            op!(3, TokenKind::StarAssign);
        }
        if self.starts_with("??=") {
            op!(3, TokenKind::CoalesceAssign);
        }
        if self.starts_with("...") {
            op!(3, TokenKind::Ellipsis);
        }
        if self.starts_with("==") {
            op!(2, TokenKind::Eq);
        }
        if self.starts_with("!=") || self.starts_with("<>") {
            op!(2, TokenKind::NotEq);
        }
        if self.starts_with("<=") {
            op!(2, TokenKind::Le);
        }
        if self.starts_with(">=") {
            op!(2, TokenKind::Ge);
        }
        if self.starts_with("&&") {
            op!(2, TokenKind::AndAnd);
        }
        if self.starts_with("||") {
            op!(2, TokenKind::OrOr);
        }
        if self.starts_with("++") {
            op!(2, TokenKind::Inc);
        }
        if self.starts_with("--") {
            op!(2, TokenKind::Dec);
        }
        if self.starts_with("->") {
            op!(2, TokenKind::Arrow);
        }
        if self.starts_with("=>") {
            op!(2, TokenKind::DoubleArrow);
        }
        if self.starts_with("::") {
            op!(2, TokenKind::DoubleColon);
        }
        if self.starts_with("+=") {
            op!(2, TokenKind::PlusAssign);
        }
        if self.starts_with("-=") {
            op!(2, TokenKind::MinusAssign);
        }
        if self.starts_with("*=") {
            op!(2, TokenKind::StarAssign);
        }
        if self.starts_with("/=") {
            op!(2, TokenKind::SlashAssign);
        }
        if self.starts_with(".=") {
            op!(2, TokenKind::DotAssign);
        }
        if self.starts_with("%=") {
            op!(2, TokenKind::PercentAssign);
        }
        if self.starts_with("??") {
            op!(2, TokenKind::Coalesce);
        }
        if self.starts_with("<<") && !self.starts_with("<<<") {
            op!(2, TokenKind::Shl);
        }
        if self.starts_with(">>") {
            op!(2, TokenKind::Shr);
        }
        if self.starts_with("**") {
            op!(2, TokenKind::Star);
        }
        let b = self.peek().expect("scan_operator at eof");
        let kind = match b {
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'.' => TokenKind::Dot,
            b'=' => TokenKind::Assign,
            b'<' => TokenKind::Lt,
            b'>' => TokenKind::Gt,
            b'!' => TokenKind::Bang,
            b'?' => TokenKind::Question,
            b':' => TokenKind::Colon,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b'@' => TokenKind::At,
            b'&' => TokenKind::Amp,
            b'|' => TokenKind::Pipe,
            b'^' => TokenKind::Caret,
            b'~' => TokenKind::Tilde,
            b'\\' => TokenKind::Backslash,
            other => {
                return Err(self.err(format!(
                    "unexpected character `{}`",
                    (other as char).escape_default()
                )))
            }
        };
        self.bump();
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src)
            .expect("lex ok")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_simple_statement() {
        let ks = kinds("<?php $x = 1; ?>");
        assert_eq!(
            ks,
            vec![
                TokenKind::Variable("x".into()),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_html_around_php() {
        let ks = kinds("<html><?php echo 1; ?></html>");
        assert!(matches!(ks[0], TokenKind::InlineHtml(ref h) if h == "<html>"));
        assert!(matches!(ks.last(), Some(TokenKind::Eof)));
        assert!(ks
            .iter()
            .any(|k| matches!(k, TokenKind::InlineHtml(h) if h == "</html>")));
    }

    #[test]
    fn lex_short_echo_tag() {
        let ks = kinds("<?= $_GET['id'] ?>");
        assert_eq!(ks[0], TokenKind::Echo);
        assert_eq!(ks[1], TokenKind::Variable("_GET".into()));
    }

    #[test]
    fn lex_single_quoted_escapes() {
        let ks = kinds(r#"<?php $s = 'it\'s \\ ok \n';"#);
        assert!(ks.contains(&TokenKind::SingleStr("it's \\ ok \\n".into())));
    }

    #[test]
    fn lex_double_quoted_interpolation() {
        let ks = kinds(r#"<?php $q = "SELECT * FROM t WHERE id = $id";"#);
        let parts = ks
            .iter()
            .find_map(|k| match k {
                TokenKind::TemplateStr(p) => Some(p.clone()),
                _ => None,
            })
            .expect("template string");
        assert_eq!(
            parts,
            vec![
                StrPart::Lit("SELECT * FROM t WHERE id = ".into()),
                StrPart::Var("id".into()),
            ]
        );
    }

    #[test]
    fn lex_interpolated_array_and_prop() {
        let ks = kinds(r#"<?php $q = "a $_GET[id] b {$row['name']} c $u->mail";"#);
        let parts = ks
            .iter()
            .find_map(|k| match k {
                TokenKind::TemplateStr(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        assert!(parts.contains(&StrPart::Index("_GET".into(), IndexKey::Str("id".into()))));
        assert!(parts.contains(&StrPart::Index("row".into(), IndexKey::Str("name".into()))));
        assert!(parts.contains(&StrPart::Prop("u".into(), "mail".into())));
    }

    #[test]
    fn lex_escaped_dollar_is_literal() {
        let ks = kinds(r#"<?php $s = "price \$5";"#);
        let parts = ks
            .iter()
            .find_map(|k| match k {
                TokenKind::TemplateStr(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(parts, vec![StrPart::Lit("price $5".into())]);
    }

    #[test]
    fn lex_heredoc_with_interpolation() {
        let src = "<?php $q = <<<SQL\nSELECT * FROM t WHERE id = $id\nSQL;\n";
        let ks = kinds(src);
        let parts = ks
            .iter()
            .find_map(|k| match k {
                TokenKind::TemplateStr(p) => Some(p.clone()),
                _ => None,
            })
            .expect("heredoc lexed");
        assert!(parts.contains(&StrPart::Var("id".into())));
        // statement terminator still present
        assert!(ks.contains(&TokenKind::Semi));
    }

    #[test]
    fn lex_nowdoc_is_literal() {
        let src = "<?php $q = <<<'TXT'\nno $interp here\nTXT;\n";
        let ks = kinds(src);
        let parts = ks
            .iter()
            .find_map(|k| match k {
                TokenKind::TemplateStr(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(parts, vec![StrPart::Lit("no $interp here".into())]);
    }

    #[test]
    fn lex_comments_are_skipped() {
        let ks = kinds("<?php // line\n# hash\n/* block\nstill */ $x;");
        assert_eq!(ks[0], TokenKind::Variable("x".into()));
    }

    #[test]
    fn lex_numbers() {
        let ks = kinds("<?php 42; 3.5; 1e3; 0x1F;");
        assert!(ks.contains(&TokenKind::Int(42)));
        assert!(ks.contains(&TokenKind::Float(3.5)));
        assert!(ks.contains(&TokenKind::Float(1000.0)));
        assert!(ks.contains(&TokenKind::Int(31)));
    }

    #[test]
    fn lex_operators() {
        let ks = kinds("<?php $a === $b; $c .= $d; $e ?? $f; $g <=> $h;");
        assert!(ks.contains(&TokenKind::Identical));
        assert!(ks.contains(&TokenKind::DotAssign));
        assert!(ks.contains(&TokenKind::Coalesce));
        assert!(ks.contains(&TokenKind::Spaceship));
    }

    #[test]
    fn lex_keywords_case_insensitive() {
        let ks = kinds("<?php IF (TRUE) ECHO 1;");
        assert_eq!(ks[0], TokenKind::If);
        assert!(ks.contains(&TokenKind::True));
        assert!(ks.contains(&TokenKind::Echo));
    }

    #[test]
    fn lex_unterminated_string_errors() {
        assert!(tokenize("<?php $s = 'oops").is_err());
        assert!(tokenize("<?php $s = \"oops").is_err());
        assert!(tokenize("<?php /* oops").is_err());
    }

    #[test]
    fn lex_spans_point_into_source() {
        let src = "<?php $abc = 7;";
        let toks = tokenize(src).unwrap();
        let var = &toks[0];
        assert_eq!(var.span.slice(src), "$abc");
    }

    #[test]
    fn lex_line_numbers() {
        let src = "<?php\n$a;\n$b;\n";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].span.line(), 2);
        assert_eq!(toks[2].span.line(), 3);
    }

    #[test]
    fn lex_close_tag_newline_swallowed() {
        // PHP swallows exactly one newline after `?>`, so no empty HTML chunk.
        let ks = kinds("<?php $a; ?>\n<?php $b;");
        assert!(!ks.iter().any(|k| matches!(k, TokenKind::InlineHtml(_))));
    }

    #[test]
    fn lex_utf8_in_strings() {
        let ks = kinds("<?php $s = \"olá mundo\";");
        let parts = ks
            .iter()
            .find_map(|k| match k {
                TokenKind::TemplateStr(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(parts, vec![StrPart::Lit("olá mundo".into())]);
    }
}
