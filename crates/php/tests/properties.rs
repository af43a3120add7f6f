//! Property tests for the PHP front end: each property runs over a fixed
//! number of cases drawn from a seeded generator.

use wap_php::ast::*;
use wap_php::lexer::tokenize;
use wap_php::token::TokenKind;
use wap_php::{parse, print_program, Span};
use wap_runtime::rng::StdRng;

/// A string matching the regex `[alphabet]{min,max}`.
fn string(rng: &mut StdRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.gen_range(min..max + 1);
    (0..len)
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

/// Printable ASCII plus newline, the regex class `[ -~\n]`.
fn printable_lines() -> Vec<u8> {
    (b' '..=b'~').chain([b'\n']).collect()
}

// ---- lexer robustness ----

/// The lexer must never panic, whatever text it is fed (`.*`: any
/// characters but newline); it either tokenizes or reports a ParseError.
#[test]
fn lexer_never_panics() {
    let mut rng = StdRng::seed_from_u64(1);
    // a past failure: a lone non-ASCII character
    let _ = tokenize("¡");
    for _ in 0..256 {
        let len = rng.gen_range(0..33);
        let src: String = (0..len)
            .map(|_| {
                let c = if rng.gen_bool(0.5) {
                    rng.gen_range(0..0x80u32)
                } else {
                    rng.gen_range(0x80..0x11_0000u32)
                };
                char::from_u32(c)
                    .filter(|&c| c != '\n')
                    .unwrap_or('\u{fffd}')
            })
            .collect();
        let _ = tokenize(&src);
    }
}

/// Same, for input that is guaranteed to enter PHP mode.
#[test]
fn lexer_never_panics_in_php_mode() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..256 {
        let body = string(&mut rng, &printable_lines(), 0, 200);
        let _ = tokenize(&format!("<?php {body}"));
    }
}

/// Token spans are ordered, in-bounds, and slice back to valid text.
#[test]
fn token_spans_are_ordered_and_in_bounds() {
    let mut rng = StdRng::seed_from_u64(3);
    let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$ ;=()'.\n";
    for _ in 0..256 {
        let body = string(&mut rng, alphabet, 0, 120);
        let src = format!("<?php {body}");
        if let Ok(tokens) = tokenize(&src) {
            let mut prev_start = 0u32;
            for t in &tokens {
                assert!(t.span.start() <= t.span.end());
                assert!((t.span.end() as usize) <= src.len());
                assert!(
                    t.span.start() >= prev_start,
                    "spans went backwards: {:?}",
                    t
                );
                prev_start = t.span.start();
                if !matches!(t.kind, TokenKind::Eof) {
                    // slicing must not panic and must be in-bounds text
                    let _ = t.span.slice(&src);
                }
            }
            assert!(matches!(
                tokens.last().map(|t| &t.kind),
                Some(TokenKind::Eof)
            ));
        }
    }
}

/// The parser must never panic either.
#[test]
fn parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..256 {
        let body = string(&mut rng, &printable_lines(), 0, 200);
        let _ = parse(&format!("<?php {body}"));
    }
}

// ---- printer round-trip on generated ASTs ----

fn lit(rng: &mut StdRng) -> Lit {
    match rng.gen_range(0..4) {
        // i64::MIN cannot be re-lexed as a literal (PHP overflows to float)
        0 => Lit::Int((rng.next_u64() as i64).max(i64::MIN + 1)),
        1 => Lit::Str(string(
            rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _'\\-",
            0,
            12,
        )),
        2 => Lit::Bool(rng.gen_bool(0.5)),
        _ => Lit::Null,
    }
}

/// `[a-z_][a-z0-9_]{0,8}`, keywords excluded.
fn ident(rng: &mut StdRng) -> String {
    loop {
        let s = string(rng, b"abcdefghijklmnopqrstuvwxyz_", 1, 1)
            + &string(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_", 0, 8);
        if TokenKind::keyword(&s).is_none() {
            return s;
        }
    }
}

fn expr_of(kind: ExprKind) -> Expr {
    Expr::new(kind, Span::synthetic())
}

fn boxed(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// An expression nested at most `depth` levels deep.
fn expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return match rng.gen_range(0..3) {
            0 => expr_of(ExprKind::Var(ident(rng).into())),
            1 => expr_of(ExprKind::Lit(lit(rng))),
            _ => expr_of(ExprKind::Name(ident(rng).into())),
        };
    }
    let d = depth - 1;
    match rng.gen_range(0..6) {
        0 => {
            let ops = [
                BinOp::Concat,
                BinOp::Add,
                BinOp::Eq,
                BinOp::And,
                BinOp::Coalesce,
            ];
            let (lhs, rhs) = (expr(rng, d), expr(rng, d));
            expr_of(ExprKind::Binary {
                op: ops[rng.gen_range(0..ops.len())],
                lhs: boxed(lhs),
                rhs: boxed(rhs),
            })
        }
        1 => {
            let name = ident(rng);
            let args = (0..rng.gen_range(0..3)).map(|_| expr(rng, d)).collect();
            expr_of(ExprKind::Call {
                callee: boxed(expr_of(ExprKind::Name(name.into()))),
                args,
            })
        }
        2 => {
            let base = ident(rng);
            let key = string(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 6);
            expr_of(ExprKind::ArrayDim {
                base: boxed(expr_of(ExprKind::Var(base.into()))),
                index: Some(boxed(expr_of(ExprKind::Lit(Lit::Str(key))))),
            })
        }
        3 => {
            let target = ident(rng);
            expr_of(ExprKind::Assign {
                target: boxed(expr_of(ExprKind::Var(target.into()))),
                op: AssignOp::Assign,
                value: boxed(expr(rng, d)),
                by_ref: false,
            })
        }
        4 => expr_of(ExprKind::Unary {
            op: UnOp::Not,
            expr: boxed(expr(rng, d)),
        }),
        _ => {
            let (cond, then, otherwise) = (expr(rng, d), expr(rng, d), expr(rng, d));
            expr_of(ExprKind::Ternary {
                cond: boxed(cond),
                then: Some(boxed(then)),
                otherwise: boxed(otherwise),
            })
        }
    }
}

/// A statement nested at most `depth` levels deep.
fn stmt(rng: &mut StdRng, depth: usize) -> Stmt {
    let sp = Span::synthetic();
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return match rng.gen_range(0..3) {
            0 => Stmt::new(StmtKind::Expr(expr(rng, 3)), sp),
            1 => {
                let es = (0..rng.gen_range(1..3)).map(|_| expr(rng, 3)).collect();
                Stmt::new(StmtKind::Echo(es), sp)
            }
            _ => Stmt::new(StmtKind::Return(Some(expr(rng, 3))), sp),
        };
    }
    let cond = expr(rng, 3);
    let body = (0..rng.gen_range(0..3))
        .map(|_| stmt(rng, depth - 1))
        .collect();
    if rng.gen_bool(0.5) {
        Stmt::new(
            StmtKind::If {
                cond: Box::new(cond),
                then_branch: body,
                elseifs: Box::default(),
                else_branch: None,
            },
            sp,
        )
    } else {
        Stmt::new(StmtKind::While { cond, body }, sp)
    }
}

fn program(rng: &mut StdRng) -> Program {
    Program {
        stmts: (0..rng.gen_range(0..6)).map(|_| stmt(rng, 2)).collect(),
    }
}

/// print → parse → print is a fixpoint for generated programs.
#[test]
fn printer_roundtrip_fixpoint() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..128 {
        let printed = print_program(&program(&mut rng));
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source failed to parse: {e}\n{printed}"));
        let printed2 = print_program(&reparsed);
        assert_eq!(&printed, &printed2, "printer is not a fixpoint");
    }
}

/// Parsing printed output preserves the statement count (no statements
/// are silently merged or dropped).
#[test]
fn printer_preserves_statement_count() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..128 {
        let program = program(&mut rng);
        let printed = print_program(&program);
        let reparsed = parse(&printed).expect("printed source parses");
        assert_eq!(reparsed.stmts.len(), program.stmts.len(), "{printed}");
    }
}

// ---- robustness under mutation ----

/// Mutating real corpus-shaped source must never panic the front end:
/// every byte-level corruption either parses or reports a ParseError.
#[test]
fn parser_survives_mutations() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..192 {
        let base = match rng.gen_range(0..6) {
            0 => "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
            1 => "<?php\nif (isset($_GET['p'])) { include 'pages/' . $_GET['p'] . '.php'; }\n",
            2 => "<?php\nclass C { public function m($x) { return htmlentities($x); } }\n",
            3 => "<?php\nforeach ($_POST as $k => $v) { echo \"<li>$k: $v</li>\"; }\n",
            4 => "<?php $q = <<<SQL\nSELECT a FROM b WHERE c = '$d'\nSQL;\nmysql_query($q);\n",
            _ => "<h1>x</h1><?php echo $_GET['m']; ?><p><?= $x ?></p>",
        };
        let mut bytes = base.as_bytes().to_vec();
        let pos = rng.gen_range(0..400) % bytes.len();
        let mutation_byte = rng.gen_range(0..255) as u8;
        if rng.gen_bool(0.5) {
            bytes.remove(pos);
        } else {
            bytes[pos] = mutation_byte;
        }
        if let Ok(src) = String::from_utf8(bytes) {
            // must not panic — Ok or Err are both fine
            let _ = parse(&src);
        }
    }
}
