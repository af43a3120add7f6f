//! Human-readable rendering (the CLI's default output).

use crate::AppReport;
use std::fmt::Write as _;

/// Formats a report as human-readable text.
pub fn render_text(report: &AppReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let file = f.candidate.file.as_deref().unwrap_or("<input>");
        if f.is_real() {
            let _ = writeln!(
                out,
                "{file}:{}: {} via {} (source: {})",
                f.candidate.line,
                f.candidate.class,
                f.candidate.sink,
                f.candidate.sources.join(", "),
            );
            for step in &f.candidate.path {
                let _ = writeln!(out, "    {} (line {})", step.what, step.line);
            }
        } else {
            let _ = writeln!(
                out,
                "{file}:{}: {} candidate predicted FALSE POSITIVE ({})",
                f.candidate.line,
                f.candidate.class,
                f.prediction.justification.join(", "),
            );
        }
    }
    if report.lint_ran {
        for l in &report.lint {
            let _ = writeln!(
                out,
                "{}:{}: {} [{}] {}",
                l.file,
                l.line,
                l.severity.as_str(),
                l.rule_id,
                l.message
            );
        }
    }
    for (file, err) in &report.parse_errors {
        let _ = writeln!(out, "{file}: parse error: {err}");
    }
    let lint_summary = if report.lint_ran {
        format!(", {} lint findings", report.lint.len())
    } else {
        String::new()
    };
    // the values addendum only exists when the value pass ran, so
    // default-config reports keep their historic shape byte for byte
    let values_summary = if report.values_ran {
        format!(
            ", {} dynamic edges resolved ({} unresolved)",
            report.dynamic_edges_resolved, report.dynamic_edges_unresolved
        )
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "\n{} files, {} LoC, {} parse errors, {} real vulnerabilities, {} predicted false positives{}{} ({} ms)",
        report.files_analyzed,
        report.loc,
        report.parse_errors.len(),
        report.real_vulnerabilities().count(),
        report.predicted_false_positives().count(),
        lint_summary,
        values_summary,
        report.duration.as_millis()
    );
    out
}

/// Formats the `--stats` addendum to the text report: per-phase totals
/// and the top-`k` slowest files. The per-file breakdown only exists
/// when the scan ran with tracing enabled (`--trace`/`--stats` turn the
/// collector on); phase totals are always present.
pub fn render_stats(report: &AppReport, k: usize) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::new();
    let _ = writeln!(out, "\nphase totals:");
    for (phase, ns) in report.stats.phases().filter(|(_, ns)| *ns > 0) {
        let _ = writeln!(out, "  {:<13} {:>10.3} ms", phase.name(), ms(ns));
    }
    if report.stats.peak_rss_bytes > 0 || report.stats.allocations > 0 {
        let _ = writeln!(out, "memory:");
        if report.stats.peak_rss_bytes > 0 {
            let _ = writeln!(
                out,
                "  peak RSS      {:>10.1} MB",
                report.stats.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        if report.stats.allocations > 0 {
            let _ = writeln!(out, "  allocations   {:>10}", report.stats.allocations);
        }
    }
    let slow = report.stats.slowest_files(k);
    if slow.is_empty() {
        let _ = writeln!(out, "no per-file timings collected");
    } else {
        let _ = writeln!(
            out,
            "slowest files (top {} of {}):",
            slow.len(),
            report.stats.files.len()
        );
        for f in slow {
            let _ = writeln!(out, "  {:>10.3} ms  {}", ms(f.ns), f.file);
        }
    }
    out
}
