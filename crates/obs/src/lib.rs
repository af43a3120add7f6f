//! # wap-obs — structured tracing and metrics for the wap pipeline
//!
//! A zero-dependency observability layer shared by every crate in the
//! workspace. It provides three primitives:
//!
//! * [`Collector`] — a thread-safe sink for [`Span`]s (monotonic
//!   start/stop timings labelled with a [`Phase`], an optional file, and
//!   a job id) and [`Event`]s (point-in-time counters such as cache
//!   hits). A collector is either *enabled* (records everything) or
//!   *disabled* (every API is an inert no-op costing one branch), so the
//!   instrumented pipeline pays nothing when tracing is off.
//! * [`Histogram`] — a fixed-bucket, atomically updated latency
//!   histogram in the Prometheus exposition style, used by `wap-serve`'s
//!   `/metrics` endpoint.
//! * an NDJSON trace writer ([`Collector::render_ndjson`]) emitting a
//!   schema-versioned span log (`wap-trace-v1`) consumed by
//!   `scripts/trace_assert.jq`.
//!
//! ## Determinism contract
//!
//! Tracing must never change analysis *output*: the collector only
//! observes — it is never consulted by the pipeline — so findings and
//! machine-format report bytes are bit-identical with tracing on or off
//! at any worker count. The trace itself is *not* deterministic (it
//! contains wall-clock durations and reflects scheduling), which is why
//! it is a separate artifact and never part of a report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod mem;

pub use mem::{allocations_now, peak_rss_bytes, CountingAlloc};

/// Schema identifier stamped on the first line of every NDJSON trace.
pub const TRACE_SCHEMA: &str = "wap-trace-v1";

/// A pipeline phase label for spans and `ScanStats`-style aggregation.
///
/// The variants mirror the stages of the WAP pipeline: lexing/parsing,
/// the per-file taint pass (phase A), the interprocedural summary merge
/// barrier, top-level execution (phase B), symptom collection + committee
/// vote, false-positive prediction, fixing, and cache probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Lexing and parsing a source file.
    Parse,
    /// Per-file taint summarization (interprocedural pass A).
    Taint,
    /// Merging per-file function summaries at the pass barrier.
    SummaryMerge,
    /// Top-level execution against merged summaries (pass B).
    TopLevelExec,
    /// Symptom collection and the committee vote on one candidate.
    Vote,
    /// The false-positive prediction phase as a whole.
    Predict,
    /// Applying a fix to a vulnerable file.
    Fix,
    /// Incremental-cache probe and (de)serialization overhead.
    Cache,
    /// Lowering parsed sources into control-flow graphs (`wap-cfg`).
    Cfg,
    /// Running the lint rule engine over the control-flow graphs.
    Lint,
    /// One live re-analysis revision (a `wap watch` or `wap lsp` edit
    /// cycle through the incremental path).
    Live,
    /// Assembling and compiling rule-pack rule sets (`wap-rules`).
    Rules,
    /// Interprocedural constant/string value analysis (`wap-cfg::values`).
    Values,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 13;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::Taint,
        Phase::SummaryMerge,
        Phase::TopLevelExec,
        Phase::Vote,
        Phase::Predict,
        Phase::Fix,
        Phase::Cache,
        Phase::Cfg,
        Phase::Lint,
        Phase::Live,
        Phase::Rules,
        Phase::Values,
    ];

    /// Stable snake_case name used in traces and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Taint => "taint",
            Phase::SummaryMerge => "summary_merge",
            Phase::TopLevelExec => "toplevel_exec",
            Phase::Vote => "vote",
            Phase::Predict => "predict",
            Phase::Fix => "fix",
            Phase::Cache => "cache",
            Phase::Cfg => "cfg",
            Phase::Lint => "lint",
            Phase::Live => "live",
            Phase::Rules => "rules",
            Phase::Values => "values",
        }
    }

    /// Index into a `[u64; Phase::COUNT]` table.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A completed timed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Pipeline phase.
    pub phase: Phase,
    /// File the work was for, when the phase is per-file.
    pub file: Option<String>,
    /// Job (scan) the span belongs to; collectors shared across scans —
    /// as in `wap-serve` — disambiguate concurrent scans with this.
    pub job: u64,
    /// Nanoseconds since the collector's epoch when the span started.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A point-in-time occurrence (e.g. one cache hit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name, e.g. `cache_hit`.
    pub name: &'static str,
    /// File the event concerns, when applicable.
    pub file: Option<String>,
    /// Job (scan) the event belongs to.
    pub job: u64,
    /// Nanoseconds since the collector's epoch.
    pub at_ns: u64,
}

/// One trace record: a span or an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A completed timed region.
    Span(Span),
    /// A point-in-time occurrence.
    Event(Event),
}

/// Thread-safe span/event sink.
///
/// Cheap to share by reference across worker threads: recording takes one
/// short mutex hold, and a *disabled* collector never touches the lock.
#[derive(Debug)]
pub struct Collector {
    enabled: bool,
    epoch: Instant,
    next_job: AtomicU64,
    records: Mutex<Vec<Record>>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new(false)
    }
}

impl Collector {
    /// A collector; `enabled = false` makes every recording API a no-op.
    pub fn new(enabled: bool) -> Self {
        Collector {
            enabled,
            epoch: Instant::now(),
            next_job: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Whether this collector records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new job (one scan) and returns its recording handle.
    /// Job ids are unique for the collector's lifetime.
    pub fn job(&self) -> JobHandle<'_> {
        JobHandle {
            collector: self,
            job: self.next_job.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, record: Record) {
        self.records.lock().expect("obs lock").push(record);
    }

    /// A snapshot of everything recorded so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("obs lock").clone()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.lock().expect("obs lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded spans and events (job ids keep advancing).
    pub fn clear(&self) {
        self.records.lock().expect("obs lock").clear();
    }

    /// How many events named `name` were recorded.
    pub fn event_count(&self, name: &str) -> u64 {
        self.records
            .lock()
            .expect("obs lock")
            .iter()
            .filter(|r| matches!(r, Record::Event(e) if e.name == name))
            .count() as u64
    }

    /// Total span nanoseconds per file for one job, sorted by descending
    /// duration (ties broken by file name for determinism of the *shape*
    /// of the output; the durations themselves are wall-clock).
    pub fn file_totals(&self, job: u64) -> Vec<(String, u64)> {
        let mut by_file: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for r in self.records.lock().expect("obs lock").iter() {
            if let Record::Span(s) = r {
                if s.job == job {
                    if let Some(file) = &s.file {
                        *by_file.entry(file.clone()).or_insert(0) += s.dur_ns;
                    }
                }
            }
        }
        let mut totals: Vec<(String, u64)> = by_file.into_iter().collect();
        totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals
    }

    /// Total span nanoseconds per phase for one job.
    pub fn phase_totals(&self, job: u64) -> [u64; Phase::COUNT] {
        let mut totals = [0u64; Phase::COUNT];
        for r in self.records.lock().expect("obs lock").iter() {
            if let Record::Span(s) = r {
                if s.job == job {
                    totals[s.phase.index()] += s.dur_ns;
                }
            }
        }
        totals
    }

    /// Renders the schema-versioned NDJSON trace: a meta line first, then
    /// one object per record, spans and events ordered by start time.
    pub fn render_ndjson(&self) -> String {
        let mut records = self.records();
        records.sort_by_key(|r| match r {
            Record::Span(s) => (s.start_ns, s.job),
            Record::Event(e) => (e.at_ns, e.job),
        });
        let spans = records
            .iter()
            .filter(|r| matches!(r, Record::Span(_)))
            .count();
        let events = records.len() - spans;
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"kind\":\"meta\",\"spans\":{spans},\"events\":{events}}}\n"
        ));
        for r in &records {
            match r {
                Record::Span(s) => {
                    out.push_str(&format!(
                        "{{\"kind\":\"span\",\"phase\":\"{}\",\"file\":{},\"job\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
                        s.phase.name(),
                        json_opt_str(s.file.as_deref()),
                        s.job,
                        s.start_ns,
                        s.dur_ns
                    ));
                }
                Record::Event(e) => {
                    out.push_str(&format!(
                        "{{\"kind\":\"event\",\"name\":\"{}\",\"file\":{},\"job\":{},\"at_ns\":{}}}\n",
                        e.name,
                        json_opt_str(e.file.as_deref()),
                        e.job,
                        e.at_ns
                    ));
                }
            }
        }
        out
    }
}

/// A process-wide disabled collector for call sites that need *some*
/// collector but have tracing off (e.g. the plain `analyze` helpers).
pub fn disabled() -> &'static Collector {
    static DISABLED: OnceLock<Collector> = OnceLock::new();
    DISABLED.get_or_init(|| Collector::new(false))
}

fn json_opt_str(s: Option<&str>) -> String {
    s.map_or_else(|| "null".to_string(), wap_json::quote)
}

/// A copyable per-scan recording handle. All span/event APIs funnel
/// through this so every record carries the scan's job id — collectors
/// shared across concurrent scans (the serve executors) stay attributable.
#[derive(Debug, Clone, Copy)]
pub struct JobHandle<'a> {
    collector: &'a Collector,
    job: u64,
}

impl<'a> JobHandle<'a> {
    /// The job id records made through this handle carry.
    pub fn id(&self) -> u64 {
        self.job
    }

    /// Whether the underlying collector records anything.
    pub fn enabled(&self) -> bool {
        self.collector.enabled
    }

    /// The collector this handle records into.
    pub fn collector(&self) -> &'a Collector {
        self.collector
    }

    /// Starts a phase span; the span is recorded when the guard drops.
    pub fn span(&self, phase: Phase) -> SpanGuard<'a> {
        self.span_inner(phase, None)
    }

    /// Starts a per-file phase span. The file name is copied only when
    /// the collector records.
    pub fn span_file(&self, phase: Phase, file: &str) -> SpanGuard<'a> {
        self.span_inner(phase, Some(file))
    }

    fn span_inner(&self, phase: Phase, file: Option<&str>) -> SpanGuard<'a> {
        if !self.collector.enabled {
            return SpanGuard { active: None };
        }
        SpanGuard {
            active: Some(ActiveSpan {
                collector: self.collector,
                phase,
                file: file.map(str::to_string),
                job: self.job,
                start_ns: self.collector.now_ns(),
            }),
        }
    }

    /// Records a point-in-time event.
    pub fn event(&self, name: &'static str) {
        self.event_inner(name, None);
    }

    /// Records a point-in-time event about one file.
    pub fn event_file(&self, name: &'static str, file: &str) {
        self.event_inner(name, Some(file));
    }

    fn event_inner(&self, name: &'static str, file: Option<&str>) {
        if !self.collector.enabled {
            return;
        }
        self.collector.push(Record::Event(Event {
            name,
            file: file.map(str::to_string),
            job: self.job,
            at_ns: self.collector.now_ns(),
        }));
    }
}

#[derive(Debug)]
struct ActiveSpan<'a> {
    collector: &'a Collector,
    phase: Phase,
    file: Option<String>,
    job: u64,
    start_ns: u64,
}

/// RAII span: records a [`Span`] when dropped. Inert (no allocation, no
/// lock) when the collector is disabled.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let end = active.collector.now_ns();
            active.collector.push(Record::Span(Span {
                phase: active.phase,
                file: active.file,
                job: active.job,
                start_ns: active.start_ns,
                dur_ns: end.saturating_sub(active.start_ns),
            }));
        }
    }
}

/// Default latency bucket upper bounds, in seconds (Prometheus `le`).
pub const DEFAULT_BUCKETS: [f64; 13] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket latency histogram with atomic updates, shaped for the
/// Prometheus text exposition (`_bucket`/`_sum`/`_count` series).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// One count per bound, plus the `+Inf` overflow bucket at the end.
    counts: Vec<AtomicU64>,
    sum_ns: AtomicU64,
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&DEFAULT_BUCKETS)
    }
}

impl Histogram {
    /// A histogram over the given upper bounds (seconds, ascending).
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let secs = ns as f64 / 1e9;
        let idx = self
            .bounds
            .iter()
            .position(|b| secs <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Appends the `_bucket`/`_sum`/`_count` series for one labelled
    /// histogram to a Prometheus exposition. `labels` is either empty or
    /// a rendered label list without braces, e.g. `phase="parse"`.
    pub fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let bare = |l: &str| {
            if l.is_empty() {
                String::new()
            } else {
                format!("{{{l}}}")
            }
        };
        let mut cumulative = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"
        ));
        let sum_secs = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        out.push_str(&format!("{name}_sum{} {sum_secs:.9}\n", bare(labels)));
        out.push_str(&format!(
            "{name}_count{} {}\n",
            bare(labels),
            self.total.load(Ordering::Relaxed)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_collector_records_spans_and_events() {
        let c = Collector::new(true);
        let job = c.job();
        {
            let _s = job.span_file(Phase::Parse, "a.php");
            job.event_file("cache_miss", "a.php");
        }
        {
            let _s = job.span(Phase::Predict);
        }
        let records = c.records();
        assert_eq!(records.len(), 3);
        assert_eq!(c.event_count("cache_miss"), 1);
        let span = records
            .iter()
            .find_map(|r| match r {
                Record::Span(s) if s.phase == Phase::Parse => Some(s),
                _ => None,
            })
            .expect("parse span recorded");
        assert_eq!(span.file.as_deref(), Some("a.php"));
        assert_eq!(span.job, job.id());
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::new(false);
        let job = c.job();
        {
            let _s = job.span_file(Phase::Taint, "x.php");
            job.event("cache_hit");
        }
        assert!(c.is_empty());
        assert!(!job.enabled());
        // the shared disabled collector behaves the same
        let d = disabled().job();
        let _s = d.span(Phase::Fix);
        drop(_s);
        assert_eq!(disabled().event_count("anything"), 0);
    }

    #[test]
    fn job_ids_are_unique_and_label_records() {
        let c = Collector::new(true);
        let j0 = c.job();
        let j1 = c.job();
        assert_ne!(j0.id(), j1.id());
        drop(j0.span_file(Phase::Taint, "a.php"));
        drop(j1.span_file(Phase::Taint, "a.php"));
        assert_eq!(c.file_totals(j0.id()).len(), 1);
        assert_eq!(c.file_totals(j1.id()).len(), 1);
    }

    #[test]
    fn file_totals_aggregate_and_sort_by_duration() {
        let c = Collector::new(true);
        let job = c.job();
        // synthesize spans directly so durations are controlled
        c.push(Record::Span(Span {
            phase: Phase::Taint,
            file: Some("small.php".into()),
            job: job.id(),
            start_ns: 0,
            dur_ns: 10,
        }));
        c.push(Record::Span(Span {
            phase: Phase::Parse,
            file: Some("big.php".into()),
            job: job.id(),
            start_ns: 0,
            dur_ns: 70,
        }));
        c.push(Record::Span(Span {
            phase: Phase::TopLevelExec,
            file: Some("big.php".into()),
            job: job.id(),
            start_ns: 80,
            dur_ns: 30,
        }));
        let totals = c.file_totals(job.id());
        assert_eq!(
            totals,
            vec![("big.php".to_string(), 100), ("small.php".to_string(), 10)]
        );
        let phases = c.phase_totals(job.id());
        assert_eq!(phases[Phase::Parse.index()], 70);
        assert_eq!(phases[Phase::Taint.index()], 10);
    }

    #[test]
    fn ndjson_trace_has_meta_line_and_valid_records() {
        let c = Collector::new(true);
        let job = c.job();
        drop(job.span_file(Phase::Parse, "with \"quote\".php"));
        job.event("cache_hit");
        let trace = c.render_ndjson();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"wap-trace-v1\""));
        assert!(lines[0].contains("\"spans\":1"));
        assert!(lines[0].contains("\"events\":1"));
        assert!(trace.contains("\\\"quote\\\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_consistent() {
        let h = Histogram::default();
        h.observe_ns(500_000); // 0.5 ms -> first bucket
        h.observe_ns(30_000_000); // 30 ms -> le=0.05
        h.observe_ns(60_000_000_000); // 60 s -> +Inf only
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 60_030_500_000);
        let mut out = String::new();
        h.render_into(&mut out, "t_seconds", "");
        assert!(out.contains("t_seconds_bucket{le=\"0.001\"} 1\n"), "{out}");
        assert!(out.contains("t_seconds_bucket{le=\"0.05\"} 2\n"), "{out}");
        assert!(out.contains("t_seconds_bucket{le=\"10\"} 2\n"), "{out}");
        assert!(out.contains("t_seconds_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("t_seconds_count 3\n"), "{out}");
        let mut labelled = String::new();
        h.render_into(&mut labelled, "t_seconds", "phase=\"parse\"");
        assert!(
            labelled.contains("t_seconds_bucket{phase=\"parse\",le=\"+Inf\"} 3\n"),
            "{labelled}"
        );
        assert!(
            labelled.contains("t_seconds_sum{phase=\"parse\"} "),
            "{labelled}"
        );
    }

    #[test]
    fn spans_are_monotonic() {
        let c = Collector::new(true);
        let job = c.job();
        let first = job.span(Phase::Parse);
        drop(first);
        let second = job.span(Phase::Taint);
        drop(second);
        let records = c.records();
        let starts: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s.start_ns),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 2);
        assert!(starts[0] <= starts[1]);
    }
}
