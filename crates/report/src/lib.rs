//! # wap-report — the report model and its renderers
//!
//! The pipeline's output types ([`AppReport`], [`Finding`]) live here,
//! together with every serialization of them: human-readable text,
//! machine-readable JSON, line-delimited NDJSON for streaming consumers,
//! and SARIF 2.1.0 for code-scanning UIs. Both the `wap` CLI and the
//! `wap-serve` HTTP service render through this crate, so a scan's bytes
//! are identical no matter which front end produced them.
//!
//! The tool identity ([`TOOL_NAME`], [`TOOL_VERSION`]) is also pinned
//! here — one constant feeds the SARIF `tool.driver` object, the JSON
//! report stamp, *and* the incremental cache's version key, so report
//! branding and cache invalidation can never drift apart.

#![warn(missing_docs)]

pub mod delta;
mod json;
mod model;
mod sarif;
mod text;

pub use delta::{compute_delta, render_delta_ndjson, FindingsDelta, WATCH_SCHEMA};
pub use json::{render_json, render_ndjson};
pub use model::{AppReport, FileStat, Finding, ScanStats};
pub use sarif::render_sarif;
pub use text::{render_stats, render_text};
pub use wap_cfg::{LintFinding, LintRule, Severity as LintSeverity};
pub use wap_obs::Phase;

use wap_catalog::VulnClass;

/// The tool name stamped into every report (SARIF `tool.driver.name`).
pub const TOOL_NAME: &str = "wap-rs";

/// The tool's semantic version, from the workspace package version. Also
/// the version component of every incremental-cache key: bumping the
/// workspace version invalidates cached analysis artifacts *and* changes
/// the reported `tool.driver.semanticVersion` in one move.
pub const TOOL_VERSION: &str = env!("CARGO_PKG_VERSION");

/// `tool.driver.informationUri` in SARIF output.
pub const TOOL_INFORMATION_URI: &str = "https://example.org/wap-rs";

/// An output format for a rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable text (the CLI default).
    #[default]
    Text,
    /// One pretty-printed JSON document.
    Json,
    /// One JSON object per finding plus a trailing summary object.
    Ndjson,
    /// SARIF 2.1.0.
    Sarif,
}

impl Format {
    /// Parses a format name (`text`, `json`, `ndjson`, `sarif`).
    pub fn parse(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "text" | "txt" => Some(Format::Text),
            "json" => Some(Format::Json),
            "ndjson" | "jsonl" => Some(Format::Ndjson),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }

    /// Picks a format from an HTTP `Accept` header value; `None` when the
    /// header names no format this crate renders.
    pub fn from_accept(accept: &str) -> Option<Format> {
        let accept = accept.to_ascii_lowercase();
        if accept.contains("application/sarif+json") {
            Some(Format::Sarif)
        } else if accept.contains("application/x-ndjson") || accept.contains("application/ndjson") {
            Some(Format::Ndjson)
        } else if accept.contains("application/json") {
            Some(Format::Json)
        } else if accept.contains("text/plain") {
            Some(Format::Text)
        } else {
            None
        }
    }

    /// The MIME type of this format's rendering.
    pub fn content_type(&self) -> &'static str {
        match self {
            Format::Text => "text/plain; charset=utf-8",
            Format::Json => "application/json",
            Format::Ndjson => "application/x-ndjson",
            Format::Sarif => "application/sarif+json",
        }
    }

    /// Renders `report` in this format. `classes` is the active catalog's
    /// class list (weapons included) — SARIF derives its rule table from
    /// it; the other formats ignore it.
    pub fn render(&self, report: &AppReport, classes: &[VulnClass]) -> String {
        match self {
            Format::Text => render_text(report),
            Format::Json => render_json(report),
            Format::Ndjson => render_ndjson(report),
            Format::Sarif => render_sarif(report, classes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parse_round_trip() {
        assert_eq!(Format::parse("sarif"), Some(Format::Sarif));
        assert_eq!(Format::parse("JSON"), Some(Format::Json));
        assert_eq!(Format::parse("ndjson"), Some(Format::Ndjson));
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("yaml"), None);
    }

    #[test]
    fn format_from_accept_header() {
        assert_eq!(
            Format::from_accept("application/sarif+json"),
            Some(Format::Sarif)
        );
        assert_eq!(
            Format::from_accept("application/x-ndjson, text/plain"),
            Some(Format::Ndjson)
        );
        assert_eq!(Format::from_accept("application/json"), Some(Format::Json));
        assert_eq!(Format::from_accept("*/*"), None);
    }

    #[test]
    fn tool_version_matches_workspace() {
        assert_eq!(TOOL_VERSION, env!("CARGO_PKG_VERSION"));
        assert!(!TOOL_NAME.is_empty());
    }
}
