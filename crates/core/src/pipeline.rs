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
use wap_php::{parse, Program, Symbol};
use wap_runtime::Runtime;
use wap_taint::{AnalysisOptions, Candidate};

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
    /// Run the CFG lint pass (`--lint`) with these rule packs joined into
    /// its rule set (`--rules`); `None` skips the pass. The joined pack
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
    pub(crate) dynamic_symptoms: DynamicSymptomMap,
    pub(crate) config: ToolConfig,
    cache: Option<CacheStore>,
    obs: Collector,
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
        let dynamic_symptoms = DynamicSymptomMap::from_catalog(&catalog);
        let cache = config.cache_dir.as_ref().map(CacheStore::open);
        let obs = Collector::new(config.trace);
        WapTool {
            catalog,
            predictor,
            corrector,
            dynamic_symptoms,
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
        &mut self.catalog
    }

    /// The tool's corrector.
    pub fn corrector(&self) -> &Corrector {
        &self.corrector
    }

    /// Links one more weapon at runtime.
    pub fn add_weapon(&mut self, weapon: Weapon) {
        weapon.link(&mut self.catalog, &mut self.corrector);
        self.dynamic_symptoms = DynamicSymptomMap::from_catalog(&self.catalog);
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
    /// parses, runs taint analysis across all files, collects symptoms,
    /// and classifies every candidate, with value analysis as the
    /// configuration's [`ToolConfig::scan`] sets it.
    ///
    /// Every phase fans out over [`WapTool::runtime`]; findings come back
    /// sorted by (file, line, class) regardless of the worker count.
    ///
    /// With a cache configured ([`ToolConfig::cache_dir`] or
    /// [`WapTool::enable_memory_cache`]) only files whose content, callee
    /// set, or configuration changed since the cached run are re-analyzed;
    /// the findings are bit-identical to an uncached run either way.
    pub fn analyze_sources(&self, sources: &[(String, String)]) -> AppReport {
        self.analyze(sources, &self.config.scan).0
    }

    /// Scans `sources` under `options`: the analysis with the value
    /// choice `options` makes, then the lint pass when
    /// [`ScanOptions::lint`] names a pack set. This is the one entry point
    /// every front end uses; one tool serves any mix of options, and the
    /// report is byte-identical to one from a tool built with those
    /// options as its defaults.
    ///
    /// The lint pass reuses the programs and value facts the analysis
    /// already derived, cache or no cache, so each file is parsed at most
    /// once, value-analyzed at most once, and lowered once, by the lint
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns `Err` only when a pack rule fails to compile (packs
    /// validated at install time never do).
    pub fn scan(
        &self,
        sources: &[(String, String)],
        options: &ScanOptions,
    ) -> Result<AppReport, wap_cfg::RuleError> {
        let (mut report, artifacts) = self.analyze(sources, options);
        if options.lint.is_some() {
            self.lint(&mut report, sources, options, &artifacts)?;
        }
        Ok(report)
    }

    /// The analysis pipeline, with the tool's store when it has one. A
    /// store the input does not suit (duplicate file names, a decl entry
    /// the parser contradicts) sends the scan through the same pipeline
    /// again with no store. Either way it hands back what it derived.
    fn analyze(
        &self,
        sources: &[(String, String)],
        options: &ScanOptions,
    ) -> (AppReport, ScanArtifacts) {
        let obs = self.obs.job();
        let run = |store| crate::incremental::analyze(self, store, sources, options, obs);
        self.cache
            .as_ref()
            .and_then(|store| run(Some(store)))
            .unwrap_or_else(|| run(None).expect("a scan with no store always completes"))
    }

    /// Runs the CFG lint pass over `sources` and attaches its findings,
    /// rule table, and phase timings to `report`, with the configured
    /// rule packs (`ToolConfig::scan.lint`, none when unset) joined into
    /// the rule set.
    ///
    /// Call it after [`WapTool::analyze_sources`] on the same sources —
    /// the tainted-sink rule reads the report's taint candidates, so a
    /// sink whose tainted variables carry a dominating validation guard
    /// is suppressed while an unguarded one becomes an error-severity
    /// finding. The rule table combines the built-in rules with every
    /// weapon-declared rule in the active catalog. With a cache
    /// configured, per-file lint results are stored under
    /// content-addressed `cfg` entries keyed on the catalog fingerprint,
    /// so warm lint runs re-lint only changed files.
    ///
    /// Standalone, this derives every program and value fact it needs
    /// itself; [`WapTool::scan`] reuses the analysis's instead.
    pub fn apply_lint(&self, report: &mut AppReport, sources: &[(String, String)]) {
        self.lint(
            report,
            sources,
            &self.config.scan,
            &ScanArtifacts::default(),
        )
        .expect("builtin and weapon-declared lint rules always compile");
    }

    /// The lint pass: the built-in lints, the weapon-declared rules, and
    /// every pack `options` names compile into one [`wap_cfg::RuleSet`]
    /// and run through the same engine. Whatever `artifacts` holds is
    /// reused; whatever it lacks is derived here.
    fn lint(
        &self,
        report: &mut AppReport,
        sources: &[(String, String)],
        options: &ScanOptions,
        artifacts: &ScanArtifacts,
    ) -> Result<(), wap_cfg::RuleError> {
        use wap_cfg::{LintFinding, RuleSpec, SinkEvent};

        let obs = self.obs.job();
        let runtime = self.runtime();
        let packs = options.lint.as_deref().unwrap_or_default();
        // key material, built only with a store to key entries in
        let config_fp = self
            .cache
            .as_ref()
            .map(|_| crate::incremental::config_fingerprint(self, options))
            .unwrap_or_default();
        let rules_fp = packs
            .iter()
            .map(|p| p.fingerprint())
            .collect::<Vec<_>>()
            .join(",");

        let mut sink_functions: Vec<String> = self
            .catalog
            .sinks()
            .filter_map(|s| match &s.kind {
                wap_catalog::SinkKind::Function(name) => Some(name.to_ascii_lowercase()),
                _ => None,
            })
            .collect();
        sink_functions.sort();
        sink_functions.dedup();

        // one rule set from all three sources: built-ins, weapon-declared
        // rules, installed packs
        let rule_set = {
            let _span = (!packs.is_empty()).then(|| obs.span(Phase::Rules));
            let t = Instant::now();
            let mut specs = wap_cfg::builtin_specs(sink_functions);
            specs.extend(self.catalog.lint_rules().map(|spec| {
                RuleSpec::legacy(
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
            let rule_set = wap_cfg::RuleSet::compile(&specs)?;
            if !packs.is_empty() {
                report.stats.add_phase_ns(Phase::Rules, elapsed_ns(t));
            }
            rule_set
        };
        let rules = rule_set.rule_table();

        // the analysis's programs; a standalone values run parses every
        // file up front (its value stage needs them all) and the per-file
        // tasks below reuse those, otherwise each task parses its own
        let parsed_here: Vec<Option<Program>>;
        let programs: &[Option<Program>] = if artifacts.values.is_none() && options.values {
            let t = Instant::now();
            parsed_here = runtime.run(sources.len(), |i| parse(&sources[i].1).ok());
            // billed to the CFG phase, like the per-file parses it replaces
            report.stats.add_phase_ns(Phase::Cfg, elapsed_ns(t));
            &parsed_here
        } else {
            &artifacts.programs
        };

        // value-analysis facts (`--values`): dynamic include sites the
        // value pass resolves are suppressed from the unresolved-include
        // lint, and the full per-file values back predicate `where`
        // constraints. Derived fresh each run, so the per-file digests
        // below keep cached lint entries from going stale when another
        // file's presence changes what resolves.
        let computed_values: HashMap<String, wap_cfg::FileValues>;
        let values_facts: Option<&HashMap<String, wap_cfg::FileValues>> = match &artifacts.values {
            Some(by_file) => Some(by_file),
            None if options.values => {
                let t = Instant::now();
                let inputs: Vec<(&str, &Program)> = sources
                    .iter()
                    .zip(programs)
                    .filter_map(|((n, _), p)| p.as_ref().map(|p| (n.as_str(), p)))
                    .collect();
                let summaries =
                    crate::incremental::compute_value_summaries(&runtime, inputs.len(), |i| {
                        Some(inputs[i].1)
                    });
                let scan_set =
                    wap_cfg::ScanSet::new(&inputs.iter().map(|(n, _)| n.to_string()).collect());
                let facts = runtime.run(inputs.len(), |i| {
                    let (name, program) = inputs[i];
                    let _span = obs.span_file(Phase::Values, name);
                    wap_cfg::analyze_file_values(name, program, &summaries, &scan_set)
                });
                computed_values = inputs
                    .iter()
                    .map(|(n, _)| n.to_string())
                    .zip(facts)
                    .collect();
                report.stats.add_phase_ns(Phase::Values, elapsed_ns(t));
                Some(&computed_values)
            }
            None => None,
        };

        // this report's taint candidates, grouped per file for the
        // tainted-sink rule; carriers also feed the `tainted` predicate
        let mut events: HashMap<&str, Vec<SinkEvent>> = HashMap::new();
        let mut tainted_by_file: HashMap<&str, std::collections::BTreeSet<String>> = HashMap::new();
        for f in &report.findings {
            if let Some(file) = f.candidate.file.as_deref() {
                events.entry(file).or_default().push(SinkEvent {
                    span: f.candidate.sink_span,
                    line: f.candidate.line,
                    class: f.candidate.class.acronym().to_string(),
                    vars: f
                        .candidate
                        .carriers
                        .iter()
                        .map(|c| Symbol::intern(c))
                        .collect(),
                });
                tainted_by_file
                    .entry(file)
                    .or_default()
                    .extend(f.candidate.carriers.iter().cloned());
            }
        }
        let needs_facts = rule_set.needs_facts();

        // one task per file: cache lookup, else parse → lower → lint
        let per_file: Vec<(Vec<LintFinding>, u64, u64)> = runtime.run(sources.len(), |i| {
            let (name, src) = &sources[i];
            let fv = values_facts.and_then(|m| m.get(name.as_str()));
            // fact digests join the key only when the facts can change
            // the findings: resolved-include offsets in values mode (a
            // new scan-set file can make an include resolve), taint
            // carriers and the full value fingerprint when predicate
            // rules consume them. Facts are recomputed every run, so
            // a cross-file change always re-keys this file's entry.
            let key = self.cache.as_ref().map(|_| {
                let mut salt = rules_fp.clone();
                if values_facts.is_some() {
                    let offsets = fv
                        .map(|fv| {
                            fv.resolution
                                .includes
                                .keys()
                                .map(|v| v.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        })
                        .unwrap_or_default();
                    salt.push_str(&format!("\u{1f}values:{offsets}"));
                }
                if needs_facts {
                    let tainted = tainted_by_file
                        .get(name.as_str())
                        .map(|t| t.iter().cloned().collect::<Vec<_>>().join(","))
                        .unwrap_or_default();
                    salt.push_str(&format!("\u{1f}tainted:{tainted}"));
                    if let Some(fv) = fv {
                        salt.push_str(&format!("\u{1f}facts:{}", fv.facts_fingerprint()));
                    }
                }
                crate::incremental::cfg_lint_key(
                    name,
                    &wap_php::content_hash(src),
                    &config_fp,
                    &salt,
                )
            });
            if let (Some(store), Some(key)) = (&self.cache, &key) {
                let cached = crate::incremental::probe(store, key, name, obs, |p| {
                    crate::incremental::decode_lint(p)
                });
                if let Some(findings) = cached {
                    return (findings, 0, 0);
                }
            }
            if artifacts.parse_failed.get(i) == Some(&true) {
                // the analysis already reported the parse failure
                return (Vec::new(), 0, 0);
            }
            let t = Instant::now();
            let mut own_program = None;
            let (program, cfgs) = {
                let _span = obs.span_file(Phase::Cfg, name);
                let program = match programs.get(i).and_then(Option::as_ref) {
                    Some(program) => program,
                    None => match parse(src) {
                        Ok(program) => own_program.insert(program),
                        Err(_) => return (Vec::new(), elapsed_ns(t), 0),
                    },
                };
                (program, wap_cfg::lower_program(program))
            };
            let cfg_ns = elapsed_ns(t);
            let t = Instant::now();
            let mut findings = {
                let _span = obs.span_file(Phase::Lint, name);
                let facts = wap_cfg::FileFacts {
                    tainted_vars: tainted_by_file.get(name.as_str()),
                    values: fv,
                };
                let mut fs = rule_set.run_with_facts(name, &cfgs, Some(src), &facts);
                if let Some(sinks) = events.get(name.as_str()) {
                    fs.extend(rule_set.run_tainted(name, &cfgs, sinks));
                }
                // dynamic includes nothing resolved are analysis coverage
                // gaps; with `--values` off every dynamic include is one
                let sites: Vec<(wap_php::Span, u32)> = wap_cfg::dynamic_include_sites(program)
                    .into_iter()
                    .filter(|s| !fv.is_some_and(|fv| fv.is_resolved_include(s.start())))
                    .map(|s| (s, s.line()))
                    .collect();
                fs.extend(rule_set.run_unresolved_includes(name, &sites));
                fs
            };
            wap_cfg::sort_findings(&mut findings);
            findings.dedup();
            let lint_ns = elapsed_ns(t);
            if let (Some(store), Some(key)) = (&self.cache, &key) {
                store.put(key, crate::incremental::encode_lint(&findings));
            }
            (findings, cfg_ns, lint_ns)
        });
        drop(events);

        let mut lint: Vec<LintFinding> = Vec::new();
        let (mut cfg_ns, mut lint_ns) = (0u64, 0u64);
        for (findings, c, l) in per_file {
            lint.extend(findings);
            cfg_ns += c;
            lint_ns += l;
        }
        wap_cfg::sort_findings(&mut lint);
        lint.dedup();
        report.lint = lint;
        report.lint_rules = rules;
        report.lint_ran = true;
        report.stats.add_phase_ns(Phase::Cfg, cfg_ns);
        report.stats.add_phase_ns(Phase::Lint, lint_ns);
        Ok(())
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

/// What the analysis derived on the way to its report, by source index,
/// handed to the lint pass so it does not derive it again. The lint pass
/// computes whatever is missing; [`ScanArtifacts::default`] holds nothing.
#[derive(Default)]
pub(crate) struct ScanArtifacts {
    /// Parsed programs, `None` where the file failed to parse or the
    /// analysis did not parse it.
    pub(crate) programs: Vec<Option<Program>>,
    /// Whether the file failed to parse (the report lists it already).
    pub(crate) parse_failed: Vec<bool>,
    /// Every parsed file's value facts, keyed by name, when the value
    /// stage derived them all.
    pub(crate) values: Option<HashMap<String, wap_cfg::FileValues>>,
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
