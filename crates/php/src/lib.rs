//! # wap-php — PHP front end for the WAPe reproduction
//!
//! A from-scratch lexer, recursive-descent parser, AST, visitor framework,
//! and source printer for the realistic PHP subset exercised by web
//! applications: mixed HTML/PHP files, superglobals, string interpolation
//! (the dominant way SQL queries are built), heredocs, functions, classes
//! and methods, closures, and the full statement set.
//!
//! This crate plays the role of the ANTLR-generated parser in the original
//! WAP tool (Medeiros et al., DSN 2016): it produces the AST that all
//! vulnerability detectors walk, and — unlike the paper's tool — also prints
//! ASTs back to source so the code corrector can be verified by re-parsing.
//!
//! ## Quick start
//!
//! ```
//! use wap_php::{parse, print_program};
//!
//! let program = parse(r#"<?php
//!     $id = $_GET['id'];
//!     mysql_query("SELECT * FROM users WHERE id = $id");
//! "#)?;
//! assert_eq!(program.stmts.len(), 2);
//!
//! // Round-trip: printing always yields re-parseable PHP.
//! let printed = print_program(&program);
//! assert_eq!(parse(&printed)?, parse(&print_program(&parse(&printed)?))?);
//! # Ok::<(), wap_php::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod ast;
pub mod error;
pub mod fingerprint;
pub mod flow;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;
pub mod visitor;

pub use ast::{Expr, ExprKind, Program, Stmt, StmtKind};
pub use error::{ParseError, ParseResult};
pub use fingerprint::{content_hash, Blake2s};
pub use intern::Symbol;
pub use parser::{parse, MAX_NESTING};
pub use printer::{print_expr, print_program, print_stmt};
pub use span::Span;
pub use visitor::Visitor;
