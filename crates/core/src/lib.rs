//! # wap-core — the WAPe pipeline
//!
//! The paper's primary contribution assembled: a **modular, extensible**
//! static analysis tool for PHP web applications (Medeiros et al., DSN
//! 2016). The pipeline runs the three modules of Fig. 1 — taint-based
//! candidate detection (`wap-taint`), data-mining false positive
//! prediction (`wap-mining`), and source correction (`wap-fixer`) — over
//! a catalog of vulnerability classes (`wap-catalog`) that **weapons**
//! extend at runtime from pure configuration (§III-D).
//!
//! ## Quick start
//!
//! ```
//! use wap_core::{WapTool, ToolConfig, Weapon};
//! use wap_catalog::WeaponConfig;
//!
//! // WAPe with the paper's three weapons (-nosqli, -hei, -wpsqli)
//! let tool = WapTool::new(ToolConfig::wape_full());
//! let report = tool.analyze_sources(&[(
//!     "plugin.php".to_string(),
//!     "<?php header('Location: ' . $_GET['to']);".to_string(),
//! )]);
//! assert_eq!(report.findings.len(), 1); // HI, via the -hei weapon
//!
//! // generating a brand-new weapon needs no programming:
//! let weapon = Weapon::generate(WeaponConfig::nosqli())?;
//! assert_eq!(weapon.flag(), "-nosqli");
//! # Ok::<(), wap_core::WeaponError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod error;
mod incremental;
pub mod overlay;
pub mod pipeline;
pub mod report;
pub mod weapon;

/// The shared work-stealing analysis runtime every parallel phase runs on.
pub use wap_runtime as runtime;

/// The persistent incremental cache layer (store + codec).
pub use wap_cache as cache;

pub use error::WapError;
pub use overlay::{collect_sources_with_overlay, SourceOverlay};
pub use pipeline::{
    AppReport, Finding, Generation, ScanOptions, ToolConfig, ToolConfigBuilder, WapTool,
};
pub use wap_obs::{allocations_now, peak_rss_bytes, CountingAlloc};
pub use wap_report::{Format, Phase, ScanStats, TOOL_NAME, TOOL_VERSION};
pub use wap_runtime::Runtime;

/// Parses PHP source (re-exported convenience used by the CLI).
pub fn pipeline_parse(src: &str) -> Result<wap_php::Program, wap_php::ParseError> {
    wap_php::parse(src)
}
pub use report::{bar_chart, real_by_class, total_predicted_fps, total_real, TextTable};
pub use weapon::{Weapon, WeaponError};
