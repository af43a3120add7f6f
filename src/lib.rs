//! # wap — modular, extensible PHP vulnerability detection and correction
//!
//! A from-scratch Rust reproduction of *"Equipping WAP with WEAPONS to
//! Detect Vulnerabilities"* (Medeiros, Neves, Correia — DSN 2016): a
//! static analysis tool for PHP web applications that
//!
//! 1. **detects** candidate input-validation vulnerabilities of 15 classes
//!    with taint analysis over a hand-written PHP front end,
//! 2. **predicts false positives** with a committee of machine-learning
//!    classifiers over the 61-attribute symptom scheme of the paper's
//!    Table I,
//! 3. **corrects** real vulnerabilities by inserting fixes into the
//!    source, and
//! 4. is extensible **without programming** through *weapons*: JSON
//!    configurations from which new detectors, fixes, and symptoms are
//!    generated at runtime.
//!
//! This facade re-exports every sub-crate. See the individual crates for
//! deep documentation:
//!
//! * [`php`] — lexer, parser, AST, visitors, printer
//! * [`taint`] — the taint analysis engine
//! * [`catalog`] — vulnerability classes, sinks/sanitizers, weapon format
//! * [`mining`] — symptom extraction, classifiers, metrics, the predictor
//! * [`fixer`] — fix templates and source correction
//! * [`interp`] — mini PHP interpreter for dynamic exploit confirmation
//! * [`corpus`] — the deterministic synthetic evaluation corpus
//! * [`cache`] — the persistent incremental analysis cache
//! * [`core`] — the assembled pipeline and weapon generator
//! * [`report`] — the report model and its renderers (text/JSON/NDJSON/SARIF)
//! * [`rules`] — versioned rule packs and the `wap rules` store
//! * [`serve`] — the resident HTTP analysis service
//! * [`live`] — the live front-ends (`wap watch` deltas, `wap lsp` diagnostics)
//!
//! ## Quick start
//!
//! ```
//! use wap::{WapTool, ToolConfig};
//!
//! let tool = WapTool::new(ToolConfig::wape_full());
//! let report = tool.analyze_sources(&[(
//!     "index.php".to_string(),
//!     r#"<?php
//!         $id = $_GET['id'];
//!         mysql_query("SELECT * FROM users WHERE id = $id");
//!     "#.to_string(),
//! )]);
//! assert_eq!(report.findings.len(), 1);
//! assert!(report.findings[0].is_real());
//! ```

pub use wap_cache as cache;
pub use wap_catalog as catalog;
pub use wap_cfg as cfg;
pub use wap_core as core;
pub use wap_corpus as corpus;
pub use wap_fixer as fixer;
pub use wap_interp as interp;
pub use wap_live as live;
pub use wap_mining as mining;
pub use wap_php as php;
pub use wap_report as report;
pub use wap_rules as rules;
pub use wap_serve as serve;
pub use wap_taint as taint;

pub use wap_catalog::{Catalog, EntryPoint, SubModule, VulnClass, WeaponConfig};
pub use wap_core::{AppReport, Finding, ScanOptions, ToolConfig, WapTool, Weapon};
pub use wap_fixer::{Corrector, FixResult};
pub use wap_interp::{confirm, Confirmation, Request};
pub use wap_mining::{FalsePositivePredictor, PredictorGeneration};
pub use wap_php::{parse, print_program};
pub use wap_taint::{analyze, analyze_program, AnalysisOptions, Candidate, SourceFile};
