//! # wap-taint — taint analysis engine for the WAPe reproduction
//!
//! Implements the *code analyzer* module of WAP (Medeiros et al., DSN 2016,
//! Fig. 1): data entering at **entry points** (superglobals, weapon-defined
//! functions) is tainted; taint propagates through assignments, string
//! interpolation/concatenation, arrays, and user-defined functions
//! (interprocedural summaries); **sanitization functions** neutralize taint
//! for their specific classes; and any tainted value reaching a **sensitive
//! sink** produces a [`Candidate`] vulnerability with its full data-flow
//! path.
//!
//! Faithful to the paper, *validation* (`is_int`, `preg_match`, white/black
//! lists) does **not** stop taint — candidates guarded that way are the
//! false positives the predictor in `wap-mining` is trained to recognize.
//!
//! ## Quick start
//!
//! ```
//! use wap_php::parse;
//! use wap_taint::analyze_program;
//! use wap_catalog::{Catalog, VulnClass};
//!
//! let program = parse(r#"<?php
//!     $q = "SELECT * FROM users WHERE name = '" . $_POST['name'] . "'";
//!     mysql_query($q);
//!     echo htmlentities($_GET['msg']); // sanitized: no XSS report
//! "#)?;
//! let found = analyze_program(&Catalog::wape(), &program);
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].class, VulnClass::Sqli);
//! # Ok::<(), wap_php::ParseError>(())
//! ```

#![warn(missing_docs)]

mod calls;
pub mod engine;
pub mod finding;
pub mod scc;
pub mod serial;
pub mod state;

pub use calls::CallTable;
pub use engine::{
    analyze, analyze_program, collect_literals, dedup_and_sort, function_fingerprint,
    function_refs, pass_candidates, referenced_names, run_pass, AnalysisOptions, FileResolution,
    PassArtifacts, PassInput, PassOutcome, SourceFile,
};
pub use finding::Candidate;
pub use scc::strongly_connected;
pub use state::{TaintInfo, TaintState, TaintStep};
pub use wap_runtime::Runtime;
