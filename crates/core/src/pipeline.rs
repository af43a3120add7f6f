//! The WAPe pipeline: detect candidates → predict false positives →
//! correct real vulnerabilities (Fig. 1).

use crate::weapon::Weapon;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use wap_cache::CacheStore;
use wap_catalog::{Catalog, WeaponConfig};
use wap_fixer::{Corrector, FixResult};
use wap_mining::{DynamicSymptomMap, FalsePositivePredictor, FeatureVector, PredictorGeneration};
use wap_obs::{Collector, JobHandle, Phase};
use wap_php::Symbol;
use wap_runtime::Runtime;
use wap_taint::{AnalysisOptions, CallTable, Candidate};

/// Which tool generation to run — the paper compares both.
pub use wap_mining::PredictorGeneration as Generation;

/// The report model, re-exported from the shared renderer crate so every
/// historical `wap_core::pipeline::AppReport` path keeps working.
pub use wap_report::{AppReport, Finding};

/// Configuration for a [`WapTool`] instance.
#[derive(Debug, Clone)]
pub struct ToolConfig {
    /// WAP v2.1 (8 classes, 16 attributes) or WAPe (15 classes, 61).
    pub generation: PredictorGeneration,
    /// Weapons to link (ignored by the v2.1 generation, which predates
    /// them).
    pub weapons: Vec<WeaponConfig>,
    /// Taint analysis options.
    pub analysis: AnalysisOptions,
    /// Training/shuffling seed (deterministic runs).
    pub seed: u64,
    /// Worker threads for every parallel phase (parse, taint, prediction).
    /// `None` uses [`std::thread::available_parallelism`]; output is
    /// bit-identical for any value.
    pub jobs: Option<usize>,
    /// Root directory of the persistent incremental cache; `None` runs
    /// without a cache. Warm runs re-analyze only changed files and are
    /// bit-identical to cold runs.
    pub cache_dir: Option<PathBuf>,
    /// Record spans and events into the tool's `wap-obs` collector
    /// (`--trace`/`--stats`). Observation only: findings and machine
    /// report bytes are bit-identical with tracing on or off.
    pub trace: bool,
    /// The scan options [`WapTool::analyze_sources`] and
    /// [`WapTool::apply_lint`] run with, and the ones front ends hand to
    /// [`WapTool::scan`] unless a request asks for others.
    pub scan: ScanOptions,
}

/// The choices made for each scan rather than for the tool. A
/// [`WapTool`] is its catalog, its linked weapons and its trained
/// committee; value analysis and the lint pass are picked per
/// [`WapTool::scan`] call, so one resident tool serves every
/// combination. Each option is folded into the cache keys it affects, so
/// results computed under one set are never served to another.
///
/// Everything is off by default: the headline reproduction keeps the
/// paper's plain symptom collector and syntactic call graph bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// Interprocedural constant/string value analysis (`--values`,
    /// `wap-cfg::values`): resolves dynamic `include`/`require` paths and
    /// variable-function/`call_user_func` targets into extra taint
    /// call-graph edges, and refines symptom vectors with the sink's
    /// value context (quoted string, numeric cast, identifier position).
    pub values: bool,
    /// Run the CFG lint stage (`--lint`) with these rule packs joined into
    /// its rule set (`--rules`); `None` skips the stage. The joined pack
    /// fingerprints key the cached per-file lint results, so installing
    /// or upgrading a pack invalidates exactly the `cfg` cache entries;
    /// with no packs the keys (and all output bytes) are identical to a
    /// build without pack support.
    pub lint: Option<Vec<wap_rules::RulePack>>,
}

impl ToolConfig {
    /// The original tool: 8 classes, original attribute scheme.
    pub fn wap_v21() -> Self {
        ToolConfig {
            generation: PredictorGeneration::WapV21,
            weapons: Vec::new(),
            analysis: AnalysisOptions::default(),
            seed: 42,
            jobs: None,
            cache_dir: None,
            trace: false,
            scan: ScanOptions::default(),
        }
    }

    /// The new tool with the Table IV sub-module extensions but no
    /// weapons.
    pub fn wape() -> Self {
        ToolConfig {
            generation: PredictorGeneration::Wape,
            weapons: Vec::new(),
            analysis: AnalysisOptions::default(),
            seed: 42,
            jobs: None,
            cache_dir: None,
            trace: false,
            scan: ScanOptions::default(),
        }
    }

    /// WAPe with the paper's three weapons linked (`-nosqli`, `-hei`,
    /// `-wpsqli`).
    pub fn wape_full() -> Self {
        ToolConfig {
            generation: PredictorGeneration::Wape,
            weapons: vec![
                WeaponConfig::nosqli(),
                WeaponConfig::hei(),
                WeaponConfig::wpsqli(),
            ],
            analysis: AnalysisOptions::default(),
            seed: 42,
            jobs: None,
            cache_dir: None,
            trace: false,
            scan: ScanOptions::default(),
        }
    }

    /// A [`ToolConfigBuilder`] starting from [`ToolConfig::wape_full`]
    /// (the CLI and service default).
    pub fn builder() -> ToolConfigBuilder {
        ToolConfigBuilder {
            config: ToolConfig::wape_full(),
        }
    }
}

/// Fluent builder for [`ToolConfig`], replacing the ad-hoc `with_*`
/// setters:
///
/// ```
/// use wap_core::ToolConfig;
///
/// let config = ToolConfig::builder()
///     .jobs(4)
///     .cache_dir("/tmp/wap-cache")
///     .trace(true)
///     .build();
/// assert_eq!(config.jobs, Some(4));
/// assert!(config.trace);
/// ```
#[derive(Debug, Clone)]
pub struct ToolConfigBuilder {
    config: ToolConfig,
}

impl ToolConfigBuilder {
    /// Switch to the WAP v2.1 generation (8 classes, no weapons).
    #[must_use]
    pub fn v21(mut self) -> Self {
        self.config.generation = PredictorGeneration::WapV21;
        self.config.weapons.clear();
        self
    }

    /// WAPe without any weapons linked ([`ToolConfig::wape`]).
    #[must_use]
    pub fn no_weapons(mut self) -> Self {
        self.config.weapons.clear();
        self
    }

    /// Replace the linked weapon set.
    #[must_use]
    pub fn weapons(mut self, weapons: Vec<WeaponConfig>) -> Self {
        self.config.weapons = weapons;
        self
    }

    /// Replace the taint analysis options wholesale.
    #[must_use]
    pub fn analysis(mut self, analysis: AnalysisOptions) -> Self {
        self.config.analysis = analysis;
        self
    }

    /// Toggle the second-order (stored injection) pass.
    #[must_use]
    pub fn second_order(mut self, on: bool) -> Self {
        self.config.analysis.second_order = on;
        self
    }

    /// Training/shuffling seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Explicit worker count for every parallel phase.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = Some(jobs);
        self
    }

    /// Worker count when known, automatic parallelism when `None`.
    #[must_use]
    pub fn maybe_jobs(mut self, jobs: Option<usize>) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Persistent incremental cache rooted at `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// Cache directory when known, no cache when `None`.
    #[must_use]
    pub fn maybe_cache_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.config.cache_dir = dir;
        self
    }

    /// Enable (or disable) span/event collection for this tool.
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Run the lint pass with these rule packs joined into it
    /// ([`ScanOptions::lint`]).
    #[must_use]
    pub fn rule_packs(mut self, packs: Vec<wap_rules::RulePack>) -> Self {
        self.config.scan.lint = Some(packs);
        self
    }

    /// Enable (or disable) the interprocedural value analysis
    /// ([`ScanOptions::values`]).
    #[must_use]
    pub fn values(mut self, on: bool) -> Self {
        self.config.scan.values = on;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ToolConfig {
        self.config
    }
}

/// The assembled tool: catalog + trained predictor + corrector.
///
/// # Examples
///
/// ```
/// use wap_core::{WapTool, ToolConfig};
///
/// let tool = WapTool::new(ToolConfig::wape_full());
/// let report = tool.analyze_sources(&[(
///     "index.php".to_string(),
///     "<?php mysql_query(\"SELECT * FROM t WHERE id = $_GET[id]\");".to_string(),
/// )]);
/// assert_eq!(report.findings.len(), 1);
/// assert!(report.findings[0].is_real());
/// ```
pub struct WapTool {
    pub(crate) catalog: Catalog,
    pub(crate) predictor: Arc<FalsePositivePredictor>,
    corrector: Corrector,
    /// The catalog's lookup tables, derived on first use and dropped
    /// whenever the catalog can change.
    tables: OnceLock<CatalogTables>,
    pub(crate) config: ToolConfig,
    cache: Option<CacheStore>,
    obs: Collector,
}

/// What every scan reads from the catalog, derived once per catalog state.
pub(crate) struct CatalogTables {
    /// The taint passes' callee classification.
    pub(crate) calls: CallTable,
    /// The weapons' dynamic symptoms, for symptom collection.
    pub(crate) symptoms: DynamicSymptomMap,
}

impl std::fmt::Debug for WapTool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WapTool")
            .field("generation", &self.config.generation)
            .field("weapons", &self.config.weapons.len())
            .finish()
    }
}

/// Returns the trained committee for `(generation, seed)`, training it at
/// most once per process. Training is deterministic in those two inputs,
/// so every `WapTool` built with the same pair can share one committee —
/// without this, each construction re-trains the classifiers (~30 ms),
/// which dominates cold-start time for short scans and for the resident
/// service spawning per-request tools.
fn trained_predictor(generation: PredictorGeneration, seed: u64) -> Arc<FalsePositivePredictor> {
    type Memo = Mutex<HashMap<(PredictorGeneration, u64), Arc<FalsePositivePredictor>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Memo::default);
    if let Some(p) = memo
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&(generation, seed))
    {
        return Arc::clone(p);
    }
    // Train outside the lock: concurrent first callers may both train,
    // but the results are identical and one simply wins the insert.
    let trained = Arc::new(FalsePositivePredictor::train(generation, seed));
    Arc::clone(
        memo.lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((generation, seed))
            .or_insert(trained),
    )
}

impl WapTool {
    /// Builds (and trains) a tool from a configuration.
    pub fn new(config: ToolConfig) -> Self {
        let mut catalog = match config.generation {
            PredictorGeneration::WapV21 => Catalog::wap_v21(),
            PredictorGeneration::Wape => Catalog::wape(),
        };
        let mut corrector = Corrector::new();
        if config.generation == PredictorGeneration::Wape {
            for w in &config.weapons {
                let weapon = Weapon::generate(w.clone()).expect("built-in weapons are valid");
                weapon.link(&mut catalog, &mut corrector);
            }
        }
        let predictor = trained_predictor(config.generation, config.seed);
        let cache = config.cache_dir.as_ref().map(CacheStore::open);
        let obs = Collector::new(config.trace);
        WapTool {
            catalog,
            predictor,
            corrector,
            tables: OnceLock::new(),
            config,
            cache,
            obs,
        }
    }

    /// The active catalog (sinks, sanitizers, entry points).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access — the §V-A study: feeding user sanitization
    /// functions (e.g. vfront's `escape`) to the tool.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.tables = OnceLock::new();
        &mut self.catalog
    }

    /// The catalog's lookup tables, derived on first use after the catalog
    /// last changed.
    pub(crate) fn tables(&self) -> &CatalogTables {
        self.tables.get_or_init(|| CatalogTables {
            calls: CallTable::new(&self.catalog),
            symptoms: DynamicSymptomMap::from_catalog(&self.catalog),
        })
    }

    /// The tool's corrector.
    pub fn corrector(&self) -> &Corrector {
        &self.corrector
    }

    /// Links one more weapon at runtime.
    pub fn add_weapon(&mut self, weapon: Weapon) {
        self.tables = OnceLock::new();
        weapon.link(&mut self.catalog, &mut self.corrector);
        self.config.weapons.push(weapon.into_config());
    }

    /// The active configuration.
    pub fn config(&self) -> &ToolConfig {
        &self.config
    }

    /// The analysis runtime this tool fans work out on.
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.config.jobs)
    }

    /// Attaches a process-lifetime in-memory cache (no disk backing):
    /// repeated [`WapTool::analyze_sources`] calls on this tool instance
    /// re-analyze only changed files.
    pub fn enable_memory_cache(&mut self) {
        self.cache = Some(CacheStore::in_memory());
    }

    /// Replaces the incremental cache store wholesale. This is how
    /// embedders (notably `wap serve` with a `--cache-peer`) hand the
    /// tool a store composed of non-default backends — tiered local +
    /// remote, or a custom [`wap_cache::CacheBackend`]. The pipeline
    /// never learns what backends exist; it only probes the store.
    pub fn set_cache_store(&mut self, store: CacheStore) {
        self.cache = Some(store);
    }

    /// The incremental cache store, when caching is enabled.
    pub fn cache(&self) -> Option<&CacheStore> {
        self.cache.as_ref()
    }

    /// The tool's span/event collector. Disabled (inert) unless the
    /// configuration asked for tracing ([`ToolConfig::trace`]); render
    /// its NDJSON trace with `wap_obs::Collector::render_ndjson`.
    pub fn obs(&self) -> &Collector {
        &self.obs
    }

    /// Analyzes an application given as `(file name, source)` pairs:
    /// [`WapTool::scan`] with the configured value choice and no lint
    /// stage. It stays only until the benchmark harness's traced op moves
    /// to `scan`.
    pub fn analyze_sources(&self, sources: &[(String, String)]) -> AppReport {
        let options = ScanOptions {
            values: self.config.scan.values,
            lint: None,
        };
        self.scan(sources, &options)
            .expect("a scan without a lint stage compiles no rules")
    }

    /// Scans `sources` under `options` through the one pipeline: parse,
    /// values ([`ScanOptions::values`]), taint, symptoms + vote and, when
    /// [`ScanOptions::lint`] names a pack set, the lint stage. Every front
    /// end calls it; the report is byte-identical to one from a tool built
    /// with `options` as its defaults, at any worker count, and with a
    /// cache ([`ToolConfig::cache_dir`], [`WapTool::enable_memory_cache`])
    /// only what changed since the cached run is re-derived. Each file is
    /// parsed, value-analyzed and lowered at most once, and the report's
    /// `duration`, `cache` and memory numbers cover every stage.
    ///
    /// # Errors
    ///
    /// Returns `Err`, before any analysis work, when a pack rule fails to
    /// compile (packs validated at install time never do).
    pub fn scan(
        &self,
        sources: &[(String, String)],
        options: &ScanOptions,
    ) -> Result<AppReport, wap_cfg::RuleError> {
        let obs = self.obs.job();
        let lint = match &options.lint {
            Some(packs) => Some(self.compile_lint(packs, obs)?),
            None => None,
        };
        Ok(self.run(sources, options, lint.as_ref(), None, obs))
    }

    /// Adds the lint stage's findings, rule table and phase times to a
    /// report [`WapTool::analyze_sources`] made of the same sources, with
    /// the configured rule packs joined in. It runs the [`WapTool::scan`]
    /// pipeline with `report`'s findings standing in for the taint and
    /// vote stages, so nothing is analyzed twice; `duration` and `cache`
    /// keep describing the analysis. It stays only until the benchmark
    /// harness's traced op moves to `scan`.
    pub fn apply_lint(&self, report: &mut AppReport, sources: &[(String, String)]) {
        let obs = self.obs.job();
        let packs = self.config.scan.lint.as_deref().unwrap_or_default();
        let lint = self
            .compile_lint(packs, obs)
            .expect("builtin and weapon-declared lint rules always compile");
        let findings = Some(&report.findings[..]);
        let linted = self.run(sources, &self.config.scan, Some(&lint), findings, obs);
        report.lint = linted.lint;
        report.lint_rules = linted.lint_rules;
        report.lint_ran = true;
        for (phase, ns) in linted.stats.phases() {
            report.stats.add_phase_ns(phase, ns);
        }
    }

    /// The pipeline, with the tool's store when it has one. A store the
    /// input does not suit (duplicate file names, a decl entry the parser
    /// contradicts) sends the scan through the same pipeline again with
    /// no store.
    fn run(
        &self,
        sources: &[(String, String)],
        options: &ScanOptions,
        lint: Option<&LintRules>,
        given: Option<&[Finding]>,
        obs: JobHandle<'_>,
    ) -> AppReport {
        let run =
            |store| crate::incremental::analyze(self, store, sources, options, lint, given, obs);
        self.cache
            .as_ref()
            .and_then(|store| run(Some(store)))
            .unwrap_or_else(|| run(None).expect("a scan with no store always completes"))
    }

    /// Compiles the lint stage's one rule set: the built-in lints, the
    /// weapon-declared rules, and every rule of `packs`.
    fn compile_lint(
        &self,
        packs: &[wap_rules::RulePack],
        obs: JobHandle<'_>,
    ) -> Result<LintRules, wap_cfg::RuleError> {
        let _span = (!packs.is_empty()).then(|| obs.span(Phase::Rules));
        let t = Instant::now();
        let sink_functions: std::collections::BTreeSet<String> = self
            .catalog
            .sinks()
            .filter_map(|s| match &s.kind {
                wap_catalog::SinkKind::Function(name) => Some(name.to_ascii_lowercase()),
                _ => None,
            })
            .collect();
        let mut specs = wap_cfg::builtin_specs(sink_functions.into_iter().collect());
        specs.extend(self.catalog.lint_rules().map(|spec| {
            wap_cfg::RuleSpec::legacy(
                &spec.id,
                &spec.kind,
                &spec.function,
                &spec.severity,
                &spec.message,
            )
        }));
        for pack in packs {
            specs.extend(pack.rules.iter().cloned());
        }
        Ok(LintRules {
            rules: wap_cfg::RuleSet::compile(&specs)?,
            packs_fp: packs
                .iter()
                .map(|p| p.fingerprint())
                .collect::<Vec<_>>()
                .join(","),
            compile_ns: (!packs.is_empty()).then(|| elapsed_ns(t)),
        })
    }

    /// Corrects one file: applies fixes for every *real* finding located
    /// in `file_name`.
    pub fn fix_file(&self, file_name: &str, source: &str, report: &AppReport) -> FixResult {
        let _span = self.obs.job().span_file(Phase::Fix, file_name);
        let vulns: Vec<Candidate> = report
            .real_vulnerabilities()
            .filter(|f| f.candidate.file.as_deref() == Some(file_name))
            .map(|f| f.candidate.clone())
            .collect();
        self.corrector.fix_source(source, &vulns)
    }
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The lint stage's compiled configuration.
pub(crate) struct LintRules {
    /// Built-ins, weapon-declared rules and the packs' rules in one set.
    pub(crate) rules: wap_cfg::RuleSet,
    /// The packs' fingerprints, joined; they key the `cfg` entries.
    pub(crate) packs_fp: String,
    /// What compiling took, when a pack was joined (the `rules` phase).
    pub(crate) compile_ns: Option<u64>,
}

/// Rewrites value-context symptoms from the lattice at this candidate's
/// sink (`--values` mode): a numeric-known carrier marks the intval
/// symptom (the committee's strongest FP signal), a quoted-string
/// context clears the numeric-entry-point symptom (quoting defeats the
/// "numeric position" heuristic).
pub(crate) fn refine_with_values(
    symptoms: &mut FeatureVector,
    values: &wap_cfg::FileValues,
    candidate: &Candidate,
) {
    let offset = candidate.sink_span.start();
    let mut best: Option<wap_cfg::SinkContext> = None;
    for c in &candidate.carriers {
        if let Some(ctx) = values.sink_context(Symbol::intern(c), offset) {
            best = Some(match best {
                // NumericCast > QuotedString > IdentifierPosition
                Some(prev) => prev.max_priority(ctx),
                None => ctx,
            });
        }
    }
    if let Some(ctx) = best {
        wap_mining::refine_with_sink_context(symptoms, ctx.name());
    }
}

/// Assembles a report's [`wap_report::ScanStats`]: the four directly
/// measured phase totals, plus — when tracing is on — the traced
/// sub-phase totals (summary merge, top-level exec, votes, fixes) and
/// the per-file breakdown aggregated from the collector's spans.
pub(crate) fn scan_stats(
    obs: JobHandle<'_>,
    parse_ns: u64,
    taint_ns: u64,
    predict_ns: u64,
    cache_ns: u64,
) -> wap_report::ScanStats {
    let mut stats = wap_report::ScanStats::new();
    stats.set_phase_ns(Phase::Parse, parse_ns);
    stats.set_phase_ns(Phase::Taint, taint_ns);
    stats.set_phase_ns(Phase::Predict, predict_ns);
    stats.set_phase_ns(Phase::Cache, cache_ns);
    if obs.enabled() {
        let traced = obs.collector().phase_totals(obs.id());
        for phase in [
            Phase::SummaryMerge,
            Phase::TopLevelExec,
            Phase::Vote,
            Phase::Fix,
        ] {
            stats.set_phase_ns(phase, traced[phase.index()]);
        }
        stats.set_file_totals(obs.collector().file_totals(obs.id()));
    }
    stats
}

// The resident service shares one trained tool across request-handler and
// executor threads; keep that property checked at compile time.
#[allow(dead_code)]
fn assert_tool_is_service_safe() {
    fn check<T: Send + Sync>() {}
    check::<WapTool>();
    check::<AppReport>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_catalog::VulnClass;

    fn src(name: &str, body: &str) -> (String, String) {
        (name.to_string(), format!("<?php\n{body}"))
    }

    #[test]
    fn wape_detects_and_classifies() {
        let tool = WapTool::new(ToolConfig::wape());
        let report = tool.analyze_sources(&[src(
            "a.php",
            r#"
$id = $_GET['id'];
mysql_query("SELECT * FROM users WHERE id = $id");
"#,
        )]);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].is_real());
        assert_eq!(report.files_analyzed, 1);
        assert!(report.loc > 0);
    }

    #[test]
    fn guarded_flow_predicted_false_positive() {
        let tool = WapTool::new(ToolConfig::wape());
        let report = tool.analyze_sources(&[src(
            "b.php",
            r#"
$id = $_GET['id'];
if (!is_numeric($id) || !isset($_GET['id'])) { exit('no'); }
mysql_query("SELECT name FROM users WHERE id = $id");
"#,
        )]);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert!(
            !f.is_real(),
            "guarded flow should be predicted FP; votes={} symptoms={:?}",
            f.prediction.votes,
            f.symptoms.present
        );
        assert!(f.prediction.justification.contains(&"is_numeric"));
    }

    #[test]
    fn wap_v21_misses_new_classes() {
        let v21 = WapTool::new(ToolConfig::wap_v21());
        let wape = WapTool::new(ToolConfig::wape());
        let files = [src(
            "c.php",
            "ldap_search($c, $b, '(uid=' . $_GET['u'] . ')');\n",
        )];
        assert_eq!(v21.analyze_sources(&files).findings.len(), 0);
        assert_eq!(wape.analyze_sources(&files).findings.len(), 1);
    }

    #[test]
    fn weapons_only_load_on_wape() {
        let full = WapTool::new(ToolConfig::wape_full());
        let files = [src("d.php", "header('Location: ' . $_GET['to']);\n")];
        assert_eq!(full.analyze_sources(&files).findings.len(), 1);
        let mut v21cfg = ToolConfig::wap_v21();
        v21cfg.weapons = vec![WeaponConfig::hei()];
        let v21 = WapTool::new(v21cfg);
        assert_eq!(v21.analyze_sources(&files).findings.len(), 0);
    }

    #[test]
    fn analyze_and_fix_round_trip() {
        let tool = WapTool::new(ToolConfig::wape());
        let file = src(
            "e.php",
            r#"
$q = $_POST['q'];
mysql_query("SELECT * FROM t WHERE c = '$q'");
"#,
        );
        let report = tool.analyze_sources(std::slice::from_ref(&file));
        assert_eq!(report.real_vulnerabilities().count(), 1);
        let fixed = tool.fix_file("e.php", &file.1, &report);
        assert_eq!(fixed.applied.len(), 1);
        assert!(fixed.fixed_source.contains("mysql_real_escape_string("));
        // fixed file re-analyzes clean (fix sanitizer is already known)
        let report2 = tool.analyze_sources(&[("e.php".to_string(), fixed.fixed_source.clone())]);
        assert_eq!(report2.findings.len(), 0, "{:?}", report2.findings);
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let tool = WapTool::new(ToolConfig::wape());
        let report = tool.analyze_sources(&[
            ("bad.php".to_string(), "<?php $x = ;".to_string()),
            src("ok.php", "echo $_GET['m'];\n"),
        ]);
        assert_eq!(report.parse_errors.len(), 1);
        assert_eq!(report.parse_errors[0].0, "bad.php");
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn loc_counts_parsed_files_only() {
        let tool = WapTool::new(ToolConfig::wape());
        let good = src("ok.php", "echo $_GET['m'];\n");
        let baseline = tool.analyze_sources(std::slice::from_ref(&good)).loc;
        let report = tool.analyze_sources(&[
            (
                "bad.php".to_string(),
                "<?php $x = ;\n// long\n// broken\n// file\n".into(),
            ),
            good,
        ]);
        assert_eq!(
            report.loc, baseline,
            "unparsed files must not count as analyzed LoC"
        );
        assert_eq!(report.files_analyzed, 1);
    }

    #[test]
    fn phase_timings_are_recorded() {
        let tool = WapTool::new(ToolConfig::wape());
        let report =
            tool.analyze_sources(&[src("t.php", "$a = $_GET['a'];\nmysql_query(\"Q $a\");\n")]);
        assert!(report.stats.phase_ns(Phase::Parse) > 0);
        assert!(report.stats.phase_ns(Phase::Taint) > 0);
        assert!(report.stats.phase_ns(Phase::Predict) > 0);
        assert!(report.duration.as_nanos() >= u128::from(report.stats.phase_ns(Phase::Parse)));
        // tracing was off, so there is no per-file breakdown
        assert!(report.stats.files.is_empty());
    }

    #[test]
    fn traced_run_collects_spans_and_per_file_stats() {
        let config = ToolConfig::builder()
            .no_weapons()
            .jobs(2)
            .trace(true)
            .build();
        let tool = WapTool::new(config);
        let files = vec![
            src("one.php", "echo $_GET['a'];\n"),
            src("two.php", "$b = $_GET['b'];\nmysql_query(\"Q $b\");\n"),
        ];
        let report = tool.analyze_sources(&files);
        assert_eq!(report.findings.len(), 2);
        assert!(!report.stats.files.is_empty(), "per-file stats expected");
        let names: Vec<&str> = report.stats.files.iter().map(|f| f.file.as_str()).collect();
        assert!(names.contains(&"one.php") && names.contains(&"two.php"));
        // the collector holds parse + taint + toplevel + vote spans
        assert!(tool.obs().enabled());
        assert!(!tool.obs().is_empty());
        let trace = tool.obs().render_ndjson();
        assert!(trace.starts_with("{\"schema\":\"wap-trace-v1\""));
        // untraced run over the same sources is bit-identical
        let plain = WapTool::new(ToolConfig::builder().no_weapons().jobs(2).build())
            .analyze_sources(&files);
        assert_eq!(
            format!("{:?}", plain.findings),
            format!("{:?}", report.findings)
        );
    }

    #[test]
    fn report_accessors() {
        let tool = WapTool::new(ToolConfig::wape());
        let report = tool.analyze_sources(&[src(
            "f.php",
            r#"
echo $_GET['a'];
$b = $_GET['b'];
if (!is_numeric($b) || !isset($_GET['b'])) { exit; }
mysql_query("SELECT x FROM t WHERE i = $b");
"#,
        )]);
        assert_eq!(report.findings.len(), 2);
        let real = report.real_by_class();
        assert!(real.iter().any(|(c, n)| c == "XSS" && *n == 1));
        assert_eq!(report.vulnerable_files(), 1);
        assert_eq!(report.predicted_false_positives().count(), 1);
    }

    #[test]
    fn parallel_parsing_matches_serial() {
        let tool = WapTool::new(ToolConfig::wape());
        let many: Vec<(String, String)> = (0..24)
            .map(|i| src(&format!("m{i}.php"), &format!("echo $_GET['k{i}'];\n")))
            .collect();
        let report = tool.analyze_sources(&many);
        assert_eq!(report.findings.len(), 24);
        assert_eq!(report.files_analyzed, 24);
    }

    /// Findings must be identical — order included — for any job count.
    #[test]
    fn job_count_never_changes_findings() {
        let files: Vec<(String, String)> = (0..16)
            .map(|i| {
                src(
                    &format!("j{i}.php"),
                    &format!(
                        "$v{i} = $_GET['p{i}'];\nmysql_query(\"SELECT x FROM t{i} WHERE a = $v{i}\");\necho $v{i};\n"
                    ),
                )
            })
            .collect();
        let fingerprint = |jobs: usize| {
            let tool = WapTool::new(ToolConfig::builder().no_weapons().jobs(jobs).build());
            let report = tool.analyze_sources(&files);
            report
                .findings
                .iter()
                .map(|f| {
                    format!(
                        "{}:{}:{}:{}:{}",
                        f.candidate.file.as_deref().unwrap_or(""),
                        f.candidate.line,
                        f.candidate.class,
                        f.prediction.is_false_positive,
                        f.prediction.votes,
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial = fingerprint(1);
        assert_eq!(serial.len(), 32);
        for jobs in [2, 8] {
            assert_eq!(fingerprint(jobs), serial, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn warm_cached_run_is_bit_identical_to_cold() {
        let files: Vec<(String, String)> = vec![
            src(
                "lib.php",
                "function fetch($k) { return $_GET[$k]; }\nfunction safe($v) { return htmlentities($v); }\n",
            ),
            src(
                "page.php",
                "$q = fetch('q');\nmysql_query(\"SELECT * FROM t WHERE c = '$q'\");\necho safe($q);\necho $q;\n",
            ),
            src("broken.php", "$x = ;"),
        ];
        let cold = WapTool::new(ToolConfig::wape()).analyze_sources(&files);

        let mut tool = WapTool::new(ToolConfig::wape());
        tool.enable_memory_cache();
        let first = tool.analyze_sources(&files);
        let warm = tool.analyze_sources(&files);
        for report in [&first, &warm] {
            assert_eq!(report.findings.len(), cold.findings.len());
            for (a, b) in report.findings.iter().zip(&cold.findings) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            assert_eq!(report.files_analyzed, cold.files_analyzed);
            assert_eq!(report.loc, cold.loc);
            assert_eq!(report.parse_errors.len(), cold.parse_errors.len());
        }
        assert!(first.cache.stored > 0, "cold cached run must populate");
        assert!(warm.cache.hits > 0, "warm run must hit");
        assert_eq!(warm.cache.misses, 0, "fully warm run must not miss");
    }

    #[test]
    fn cache_reanalyzes_only_changed_files() {
        let mut files: Vec<(String, String)> = (0..6)
            .map(|i| src(&format!("c{i}.php"), &format!("echo $_GET['k{i}'];\n")))
            .collect();
        let mut tool = WapTool::new(ToolConfig::wape());
        tool.enable_memory_cache();
        tool.analyze_sources(&files);
        // edit one file: its entries miss, the other five hit
        files[3].1.push_str("echo $_POST['extra'];\n");
        let warm = tool.analyze_sources(&files);
        assert_eq!(warm.findings.len(), 7);
        let cold = WapTool::new(ToolConfig::wape()).analyze_sources(&files);
        for (a, b) in warm.findings.iter().zip(&cold.findings) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert!(warm.cache.hits > 0);
        assert!(warm.cache.misses > 0);
    }

    #[test]
    fn duplicate_file_names_fall_back_to_cold_path() {
        let files = vec![
            src("dup.php", "echo $_GET['a'];\n"),
            src("dup.php", "echo $_GET['b'];\n"),
        ];
        let mut tool = WapTool::new(ToolConfig::wape());
        tool.enable_memory_cache();
        let report = tool.analyze_sources(&files);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.cache, wap_cache::CacheStatsSnapshot::default());
    }

    #[test]
    fn catalog_change_invalidates_cached_findings() {
        let files = vec![src(
            "san.php",
            "function clean($v) { return str_replace(\"'\", \"''\", $v); }\n$n = clean($_GET['n']);\nmysql_query(\"SELECT * FROM t WHERE n = '$n'\");\n",
        )];
        let mut tool = WapTool::new(ToolConfig::wape());
        tool.enable_memory_cache();
        assert_eq!(tool.analyze_sources(&files).findings.len(), 1);
        tool.catalog_mut()
            .add_user_sanitizer("clean", &[VulnClass::Sqli]);
        // same sources, different catalog: stale entries must not be reused
        assert_eq!(tool.analyze_sources(&files).findings.len(), 0);
    }

    #[test]
    fn user_sanitizer_study_on_tool() {
        let mut tool = WapTool::new(ToolConfig::wape());
        let files = [src(
            "vfront.php",
            r#"
function escape($v) { return str_replace("'", "''", $v); }
$n = escape($_GET['n']);
mysql_query("SELECT * FROM t WHERE n = '$n'");
"#,
        )];
        assert_eq!(tool.analyze_sources(&files).findings.len(), 1);
        tool.catalog_mut()
            .add_user_sanitizer("escape", &[VulnClass::Sqli]);
        assert_eq!(tool.analyze_sources(&files).findings.len(), 0);
    }
}
