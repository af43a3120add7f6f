//! The analysis pipeline, with the incremental cache as an optional input
//! to each stage. A scan with no store is the same pipeline with every
//! file a miss: it builds no key, digest or payload.
//!
//! A warm run must produce findings **bit-identical** to an uncached run
//! at any job count. The module achieves that by caching exactly the
//! artifacts the stages join on, never intermediate heuristics:
//!
//! - **decl entries** — keyed by file *content* only: the declared function
//!   names and per-function fingerprints (or the parse error). These let a
//!   warm run know every file's contribution to the global function index
//!   without parsing anything.
//! - **pass entries** — one per (file, pass) holding the file's
//!   [`PassArtifacts`]: its canonical function summaries and phase-A/B
//!   candidates. Keyed by the file content, the file's *dependency
//!   digest* (the span-source fingerprints of exactly the declarations
//!   the file transitively references, so editing one function
//!   invalidates only its own file and the files that actually depend on
//!   it), and the tool configuration.
//! - **findings entries** — one per file with candidates, holding the
//!   prediction + symptom vector for each of the file's candidates, in
//!   candidate-stream order, guarded by a digest of those candidates.
//!
//! Every payload decoder is total and every validation failure degrades to
//! a recompute (or, for structural surprises such as duplicate file names,
//! to the same pipeline with no store) — a corrupted cache can cost time,
//! never correctness.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;
use std::time::Instant;

use wap_cache::{CacheStatsSnapshot, CacheStore, CacheTier, CodecError, Reader, Writer};
use wap_mining::{collect, intern_symptom_name, FeatureVector, Prediction};
use wap_php::ast::Function;
use wap_php::fingerprint::fields_hash;
use wap_php::{content_hash, parse, Blake2s, ParseError, Program, Span, Symbol};
use wap_runtime::Runtime;
use wap_taint::serial::write_candidate;
use wap_taint::{
    dedup_and_sort, function_fingerprint, function_refs, pass_candidates, referenced_names,
    run_pass, Candidate, FileResolution, PassArtifacts, PassInput,
};

use wap_obs::{JobHandle, Phase};

use crate::pipeline::{
    elapsed_ns, refine_with_values, scan_stats, AppReport, Finding, ScanArtifacts, ScanOptions,
    WapTool,
};

/// Bumped whenever key derivation or any payload layout in this module
/// changes; combined with the tool version so entries never cross builds.
const CACHE_SCHEMA: &str = "core-cache-v3";

/// The tool-version component of every cache key. This is the same
/// constant stamped into reports and the SARIF `tool.driver`, so a
/// version bump invalidates cached artifacts and changes the advertised
/// tool version atomically — the two can never drift apart.
const TOOL_VERSION_KEY: &str = wap_report::TOOL_VERSION;

/// The observability event name for a cache hit served by `tier`.
/// Peer-served hits are labeled distinctly so fleet traces show which
/// warmth came over the wire; the probe sites themselves stay
/// backend-agnostic — they never learn what storage answered.
pub(crate) fn hit_event(tier: CacheTier) -> &'static str {
    match tier {
        CacheTier::Remote => "remote_cache_hit",
        CacheTier::Memory | CacheTier::Local => "cache_hit",
    }
}

fn decl_key(hash: &str) -> String {
    fields_hash(["decl", CACHE_SCHEMA, TOOL_VERSION_KEY, hash])
}

fn pass_key(second: bool, file: &str, hash: &str, deps_digest: &str, config_fp: &str) -> String {
    fields_hash([
        "pass",
        CACHE_SCHEMA,
        TOOL_VERSION_KEY,
        if second { "2" } else { "1" },
        file,
        hash,
        deps_digest,
        config_fp,
    ])
}

fn findings_key(
    file: &str,
    hash: &str,
    deps_digest: &str,
    config_fp: &str,
    ran_pass2: bool,
) -> String {
    fields_hash([
        "find",
        CACHE_SCHEMA,
        TOOL_VERSION_KEY,
        file,
        hash,
        deps_digest,
        config_fp,
        if ran_pass2 { "1" } else { "0" },
    ])
}

/// Everything cached runs need to know about what analysis they are
/// running: catalog contents (weapons included), generation, training
/// seed, analysis options, and whether this scan runs value analysis.
/// Any difference must yield disjoint keys. Lint packs are not part of
/// it: they key only the `cfg` entries ([`cfg_lint_key`]).
pub(crate) fn config_fingerprint(tool: &WapTool, options: &ScanOptions) -> String {
    let base = [
        tool.catalog.fingerprint_material(),
        format!("{:?}", tool.config.generation),
        tool.config.seed.to_string(),
        format!("{:?}", tool.config.analysis),
        // the deleted guard refinement's field, kept so existing caches
        // stay warm
        "guards:false".to_string(),
    ];
    // the field joins only when value analysis is on, so value-less
    // fingerprints stay identical to the historical four-field scheme
    if options.values {
        fields_hash(base.into_iter().chain(["values:true".to_string()]))
    } else {
        fields_hash(base)
    }
}

/// Key of one `cfg` entry: the lint findings of one file. Content-
/// addressed by the file bytes and the configuration fingerprint, so a
/// catalog change (new weapon lint rule, different sink set) invalidates
/// cached lint results exactly like it invalidates findings. `rules_fp`
/// joins the key only when rule packs are active, so installing or
/// upgrading a pack re-keys exactly the `cfg` entries while pack-less
/// keys stay byte-identical to the historical scheme.
pub(crate) fn cfg_lint_key(file: &str, hash: &str, config_fp: &str, rules_fp: &str) -> String {
    if rules_fp.is_empty() {
        fields_hash(["cfg", CACHE_SCHEMA, TOOL_VERSION_KEY, file, hash, config_fp])
    } else {
        fields_hash([
            "cfg",
            CACHE_SCHEMA,
            TOOL_VERSION_KEY,
            file,
            hash,
            config_fp,
            rules_fp,
        ])
    }
}

pub(crate) fn encode_lint(findings: &[wap_cfg::LintFinding]) -> Vec<u8> {
    let mut w = Writer::new();
    w.seq(findings.len());
    for f in findings {
        w.str(&f.rule_id);
        w.str(f.severity.as_str());
        w.str(&f.file);
        w.u32(f.line);
        w.u32(f.span.start());
        w.u32(f.span.end());
        w.u32(f.span.line());
        w.str(&f.message);
    }
    w.into_bytes()
}

pub(crate) fn decode_lint(bytes: &[u8]) -> Result<Vec<wap_cfg::LintFinding>, CodecError> {
    let mut r = Reader::new(bytes);
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let rule_id = r.str()?;
        let severity = r.str()?;
        let severity = wap_cfg::Severity::parse(&severity)
            .ok_or_else(|| CodecError(format!("unknown lint severity {severity:?}")))?;
        let file = r.str()?;
        let line = r.u32()?;
        let (start, end, span_line) = (r.u32()?, r.u32()?, r.u32()?);
        if end < start {
            return Err(CodecError(format!("span end {end} before start {start}")));
        }
        let message = r.str()?;
        out.push(wap_cfg::LintFinding {
            rule_id,
            severity,
            file,
            line,
            span: Span::new(start, end, span_line),
            message,
        });
    }
    if !r.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after lint entry",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Key of one `values` entry: the value-analysis resolution facts of one
/// file (`--values`). Keyed by the file content, the scan-set membership
/// digest (include resolution only targets scan-set file names, so adding
/// or removing a file can change what resolves), the file's dependency
/// digest (the summaries of the functions it calls by name), and the
/// configuration. A dynamic call reads the summary of a target chosen by
/// *value*, which no key field covers: the payload carries the digest of
/// those targets' closure instead ([`DeclIndex::calls_digest`]), checked
/// on every hit.
fn values_key(file: &str, hash: &str, scanset: &str, deps_digest: &str, config_fp: &str) -> String {
    fields_hash([
        "values-v2",
        CACHE_SCHEMA,
        TOOL_VERSION_KEY,
        file,
        hash,
        scanset,
        deps_digest,
        config_fp,
    ])
}

fn encode_values(calls_digest: &str, r: &wap_cfg::ValueResolution) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(calls_digest);
    let targets_seq = |w: &mut Writer, map: &std::collections::BTreeMap<u32, Vec<String>>| {
        w.seq(map.len());
        for (off, targets) in map {
            w.u32(*off);
            w.seq(targets.len());
            for t in targets {
                w.str(t);
            }
        }
    };
    targets_seq(&mut w, &r.includes);
    w.seq(r.unresolved_includes.len());
    for s in &r.unresolved_includes {
        w.u32(s.start());
        w.u32(s.end());
        w.u32(s.line());
    }
    targets_seq(&mut w, &r.calls);
    w.usize(r.dynamic_includes_resolved);
    w.usize(r.dynamic_calls_resolved);
    w.usize(r.dynamic_calls_unresolved);
    w.into_bytes()
}

/// Decodes a `values` entry into its calls digest and resolution facts.
fn decode_values(bytes: &[u8]) -> Result<(String, wap_cfg::ValueResolution), CodecError> {
    let mut r = Reader::new(bytes);
    let calls_digest = r.str()?;
    let targets_map = |r: &mut Reader| -> Result<_, CodecError> {
        let n = r.seq()?;
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..n {
            let off = r.u32()?;
            let tn = r.seq()?;
            let mut targets = Vec::with_capacity(tn.min(1024));
            for _ in 0..tn {
                targets.push(r.str()?);
            }
            map.insert(off, targets);
        }
        Ok(map)
    };
    let includes = targets_map(&mut r)?;
    let n = r.seq()?;
    let mut unresolved_includes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let (start, end, line) = (r.u32()?, r.u32()?, r.u32()?);
        if end < start {
            return Err(CodecError(format!("span end {end} before start {start}")));
        }
        unresolved_includes.push(Span::new(start, end, line));
    }
    let calls = targets_map(&mut r)?;
    let out = wap_cfg::ValueResolution {
        includes,
        unresolved_includes,
        calls,
        dynamic_includes_resolved: r.usize()?,
        dynamic_calls_resolved: r.usize()?,
        dynamic_calls_unresolved: r.usize()?,
    };
    if !r.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after values entry",
            r.remaining()
        )));
    }
    Ok((calls_digest, out))
}

/// One declared function in a decl entry.
#[derive(Clone)]
struct DeclRecord {
    /// Lowercased function name.
    name: String,
    /// Span-source fingerprint of the declaration.
    fp: String,
    /// Lowercased call targets the declaration references, sorted.
    refs: Vec<String>,
}

/// What a decl entry records about one source file.
enum DeclInfo {
    /// A parseable file: its declarations in declaration order, plus the
    /// lowercased call targets referenced anywhere in the file (sorted).
    Decls {
        decls: Vec<DeclRecord>,
        refs: Vec<String>,
    },
    /// The file does not parse.
    Unparsed { message: String, span: Span },
}

fn encode_decl(info: &DeclInfo) -> Vec<u8> {
    let mut w = Writer::new();
    match info {
        DeclInfo::Decls { decls, refs } => {
            w.bool(true);
            w.seq(decls.len());
            for d in decls {
                w.str(&d.name);
                w.str(&d.fp);
                w.seq(d.refs.len());
                for r in &d.refs {
                    w.str(r);
                }
            }
            w.seq(refs.len());
            for r in refs {
                w.str(r);
            }
        }
        DeclInfo::Unparsed { message, span } => {
            w.bool(false);
            w.str(message);
            w.u32(span.start());
            w.u32(span.end());
            w.u32(span.line());
        }
    }
    w.into_bytes()
}

fn decode_decl(bytes: &[u8]) -> Result<DeclInfo, CodecError> {
    let mut r = Reader::new(bytes);
    let info = if r.bool()? {
        let n = r.seq()?;
        let mut decls = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let fp = r.str()?;
            let rn = r.seq()?;
            let mut refs = Vec::with_capacity(rn.min(1024));
            for _ in 0..rn {
                refs.push(r.str()?);
            }
            decls.push(DeclRecord { name, fp, refs });
        }
        let rn = r.seq()?;
        let mut refs = Vec::with_capacity(rn.min(4096));
        for _ in 0..rn {
            refs.push(r.str()?);
        }
        DeclInfo::Decls { decls, refs }
    } else {
        let message = r.str()?;
        let (start, end, line) = (r.u32()?, r.u32()?, r.u32()?);
        if end < start {
            return Err(CodecError(format!("span end {end} before start {start}")));
        }
        DeclInfo::Unparsed {
            message,
            span: Span::new(start, end, line),
        }
    };
    if !r.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after decl entry",
            r.remaining()
        )));
    }
    Ok(info)
}

/// One parsed-ok source file in input order — the unit the taint passes
/// and the findings stage operate on. The key material (`hash`, `decls`,
/// `refs`) stays empty in a scan with no store.
struct FileMeta {
    /// Index into the original `sources` slice.
    src: usize,
    name: String,
    hash: String,
    /// Declarations in declaration order.
    decls: Vec<DeclRecord>,
    /// Lowercased call targets referenced anywhere in the file, sorted.
    refs: Vec<String>,
}

impl FileMeta {
    /// The names a taint pass over this file starts from: its own
    /// declarations and its call targets. Their [`DeclIndex::closure`] is
    /// every declaration the pass can walk.
    fn seeds(&self) -> impl Iterator<Item = &str> {
        let decls = self.decls.iter().map(|d| d.name.as_str());
        decls.chain(self.refs.iter().map(String::as_str))
    }
}

/// The canonical declaration of one function name: the first in (file
/// order, declaration order) — the owner rule the engine's function
/// index applies.
struct Canon<'a> {
    /// Index of the declaring file in the run's `files`.
    owner: usize,
    fp: &'a str,
    refs: &'a [String],
}

/// Every function name's canonical declaration, and the one definition of
/// what a file's analysis can see: its dependency closure. The closure
/// keys the pass and findings entries (through the dependency digests)
/// and picks the files a pass miss parses, so what a warm run re-reads
/// and what invalidates it can never disagree.
struct DeclIndex<'a> {
    files: &'a [FileMeta],
    canon: HashMap<&'a str, Canon<'a>>,
}

impl<'a> DeclIndex<'a> {
    fn new(files: &'a [FileMeta]) -> Self {
        let mut canon: HashMap<&str, Canon<'_>> = HashMap::new();
        for (owner, f) in files.iter().enumerate() {
            for d in &f.decls {
                canon.entry(d.name.as_str()).or_insert(Canon {
                    owner,
                    fp: d.fp.as_str(),
                    refs: &d.refs,
                });
            }
        }
        DeclIndex { files, canon }
    }

    /// `seeds` plus every name reachable from them through the call
    /// targets of canonical declarations, sorted. Undeclared names stay
    /// in the set but lead nowhere.
    fn closure<'s>(&'s self, seeds: impl IntoIterator<Item = &'s str>) -> BTreeSet<&'s str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut work: Vec<&str> = seeds.into_iter().filter(|n| seen.insert(n)).collect();
        while let Some(n) = work.pop() {
            if let Some(c) = self.canon.get(n) {
                for r in c.refs {
                    if seen.insert(r.as_str()) {
                        work.push(r.as_str());
                    }
                }
            }
        }
        seen
    }

    /// The canonical `[name, owner, fingerprint]` rows of `names`, in
    /// order. Undeclared names are built-ins, whose semantics are part of
    /// the config fingerprint, so they contribute no row — and declaring
    /// one later adds a row.
    fn rows<'s>(&'s self, names: &'s BTreeSet<&'s str>) -> impl Iterator<Item = [&'s str; 3]> {
        names.iter().filter_map(|n| {
            self.canon
                .get(n)
                .map(|c| [*n, self.files[c.owner].name.as_str(), c.fp])
        })
    }

    /// Digest of the closure of the dynamic-call targets the value
    /// analysis resolved in one file: the summaries those calls read.
    fn calls_digest(&self, r: &wap_cfg::ValueResolution) -> String {
        let names = self.closure(r.calls.values().flatten().map(|t| lower(t)));
        fields_hash(self.rows(&names).flatten())
    }
}

/// The lowercased form of a function name, as declarations record it.
fn lower(name: &str) -> &'static str {
    Symbol::intern(name).lower().as_str()
}

fn encode_findings(digest: &str, findings: &[Option<Finding>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(digest);
    w.seq(findings.len());
    for f in findings {
        let f = f.as_ref().expect("findings group fully computed");
        w.bool(f.prediction.is_false_positive);
        w.usize(f.prediction.votes);
        w.seq(f.prediction.justification.len());
        for j in &f.prediction.justification {
            w.str(j);
        }
        w.seq(f.symptoms.features.len());
        for v in &f.symptoms.features {
            w.f64(*v);
        }
        w.seq(f.symptoms.present.len());
        for p in &f.symptoms.present {
            w.str(p);
        }
    }
    w.into_bytes()
}

/// Re-interns a symptom name against the static table. Names that are not
/// in this build's table mark the entry as foreign → corrupt.
fn intern(name: &str) -> Result<&'static str, CodecError> {
    intern_symptom_name(name).ok_or_else(|| CodecError(format!("unknown symptom name {name:?}")))
}

/// Decodes a findings entry into one (prediction, symptoms) pair per
/// candidate of a group of `n` whose digest is `expected_digest`.
fn decode_findings(
    bytes: &[u8],
    expected_digest: &str,
    n: usize,
) -> Result<Vec<(Prediction, FeatureVector)>, CodecError> {
    let mut r = Reader::new(bytes);
    let digest = r.str()?;
    if digest != expected_digest {
        return Err(CodecError("candidate digest mismatch".into()));
    }
    let len = r.seq()?;
    if len != n {
        return Err(CodecError(format!(
            "entry has {len} findings, group has {n}"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let is_false_positive = r.bool()?;
        let votes = r.usize()?;
        let jn = r.seq()?;
        let mut justification = Vec::with_capacity(jn);
        for _ in 0..jn {
            justification.push(intern(&r.str()?)?);
        }
        let fc = r.seq()?;
        let mut features = Vec::with_capacity(fc);
        for _ in 0..fc {
            features.push(r.f64()?);
        }
        let pc = r.seq()?;
        let mut present = Vec::with_capacity(pc);
        for _ in 0..pc {
            present.push(intern(&r.str()?)?);
        }
        let prediction = Prediction {
            is_false_positive,
            votes,
            justification,
        };
        out.push((prediction, FeatureVector { features, present }));
    }
    if !r.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after findings entry",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Looks `key` up and decodes its payload, recording a hit, a miss or a
/// corrupt entry against `file`; a corrupt entry is rejected.
pub(crate) fn probe<T, E>(
    store: &CacheStore,
    key: &str,
    file: &str,
    obs: JobHandle<'_>,
    decode: impl FnOnce(&[u8]) -> Result<T, E>,
) -> Option<T> {
    match store.probe(key) {
        Some((payload, tier)) => match decode(&payload) {
            Ok(value) => {
                obs.event_file(hit_event(tier), file);
                Some(value)
            }
            Err(_) => {
                obs.event_file("cache_corrupt", file);
                store.reject(key);
                None
            }
        },
        None => {
            obs.event_file("cache_miss", file);
            None
        }
    }
}

/// What every stage of one scan reads.
struct Scan<'a> {
    tool: &'a WapTool,
    /// The cache, when the scan has one: each stage looks its entries up
    /// and computes only the misses. With none, every file is a miss.
    store: Option<&'a CacheStore>,
    sources: &'a [(String, String)],
    options: &'a ScanOptions,
    runtime: Runtime,
    obs: JobHandle<'a>,
}

/// Wall-clock nanoseconds per phase, summed over the stages.
#[derive(Default)]
struct Ns {
    parse: u64,
    taint: u64,
    predict: u64,
    cache: u64,
    values: u64,
}

/// The key material of a scan with a store.
struct Keys<'a> {
    store: &'a CacheStore,
    config_fp: String,
    decls: DeclIndex<'a>,
    /// Per-file dependency digests (extended in values mode).
    deps: Vec<String>,
}

/// The analysis pipeline: decl/parse, values (`--values`), taint passes
/// 1 and 2, symptoms + vote. With a store, each stage looks its entries
/// up, computes the misses and stores them. With none, every file is a
/// miss and no content hash, decl record, digest or payload is built. Either way the report is byte-identical, and the
/// programs and value facts derived on the way come back for the lint
/// pass.
///
/// Returns `None` when the store turns out unsuitable: duplicate file
/// names, a decl entry the parser now contradicts, or a pass that reached
/// a body it did not parse. The caller then runs the pipeline again with
/// no store, which always completes.
pub(crate) fn analyze(
    tool: &WapTool,
    store: Option<&CacheStore>,
    sources: &[(String, String)],
    options: &ScanOptions,
    obs: JobHandle<'_>,
) -> Option<(AppReport, ScanArtifacts)> {
    let start = Instant::now();
    let alloc_start = wap_obs::allocations_now();
    let stats_before = store.map(|s| s.stats().snapshot());
    let scan = Scan {
        tool,
        store,
        sources,
        options,
        runtime: tool.runtime(),
        obs,
    };
    let mut ns = Ns::default();

    if store.is_some() {
        // per-file entries assume names identify files uniquely
        let mut names = HashSet::new();
        if !sources.iter().all(|(n, _)| names.insert(n.as_str())) {
            return None;
        }
    }

    let (files, programs, parse_errors) = decl_stage(&scan, &mut ns);
    // only successfully parsed files count as analyzed LoC
    let loc = files.iter().map(|f| sources[f.src].1.lines().count()).sum();

    // A file's pass output depends on exactly the canonical declarations
    // in its dependency closure, so its digest covers that closure and
    // nothing else: editing one function re-keys only its own file and
    // the files that can actually observe the change.
    let mut keys = store.map(|store| {
        let config_fp = config_fingerprint(tool, options);
        let t = Instant::now();
        let decls = DeclIndex::new(&files);
        let deps = scan.runtime.run(files.len(), |i| {
            fields_hash(decls.rows(&decls.closure(files[i].seeds())).flatten())
        });
        ns.cache += elapsed_ns(t);
        Keys {
            store,
            config_fp,
            decls,
            deps,
        }
    });
    let file_index: HashMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();

    let keyed = keys.as_ref();
    let mut values = None;
    if options.values {
        values = Some(values_stage(&scan, &files, &programs, keyed, &mut ns)?);
    }
    // the taint engine's resolution view: only files with at least one
    // resolved include or call appear
    let resolutions: HashMap<String, FileResolution> = values
        .as_ref()
        .map(|v| {
            (0..files.len())
                .filter_map(|i| {
                    let r = v.resolution(i);
                    (!r.includes.is_empty() || !r.calls.is_empty()).then(|| {
                        let view = FileResolution {
                            includes: r.includes.iter().map(|(k, v)| (*k, v.clone())).collect(),
                            calls: r.calls.iter().map(|(k, v)| (*k, v.clone())).collect(),
                        };
                        (files[i].name.clone(), view)
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    // files some resolved include points at: parsed alongside any pass
    // miss so inlined include execution matches an uncached run
    let mut include_targets: Vec<usize> = Vec::new();
    if let (Some(k), Some(v)) = (&mut keys, &values) {
        let set: BTreeSet<usize> = (0..files.len())
            .flat_map(|i| v.resolution(i).includes.values())
            .flatten()
            .filter_map(|t| file_index.get(t.as_str()).copied())
            .collect();
        include_targets = set.into_iter().collect();
        let t = Instant::now();
        k.deps = values_deps(&scan, &files, &file_index, k, v);
        ns.cache += elapsed_ns(t);
    }

    // ---- taint passes ----
    // each program's declarations are walked once, for both passes
    let functions: Vec<OnceLock<Vec<&Function>>> = files.iter().map(|_| OnceLock::new()).collect();
    let taint = TaintInputs {
        files: &files,
        programs: &programs,
        functions: &functions,
        resolutions: &resolutions,
        include_targets: &include_targets,
    };
    let p1 = taint_pass(&scan, &taint, keys.as_ref(), false, &mut ns)?;
    let ran_pass2 = tool.config.analysis.second_order && p1.iter().any(PassArtifacts::store_seen);
    let mut candidates = pass_candidates(&p1);
    drop(p1);
    if ran_pass2 {
        let p2 = taint_pass(&scan, &taint, keys.as_ref(), true, &mut ns)?;
        candidates.extend(pass_candidates(&p2));
    }
    let candidates = dedup_and_sort(candidates);

    let findings = findings_stage(
        &scan,
        &files,
        &programs,
        keys.as_ref(),
        &file_index,
        values.as_mut(),
        candidates,
        ran_pass2,
        &mut ns,
    )?;

    let (edges_resolved, edges_unresolved) = values.as_ref().map_or((0, 0), |v| {
        (0..files.len()).fold((0, 0), |(res, unres), i| {
            let (a, b) = v.resolution(i).edge_counts();
            (res + a, unres + b)
        })
    });
    let mut stats = scan_stats(obs, ns.parse, ns.taint, ns.predict, ns.cache);
    if values.is_some() {
        stats.set_phase_ns(Phase::Values, ns.values);
    }
    stats.allocations = wap_obs::allocations_now().saturating_sub(alloc_start);
    stats.peak_rss_bytes = wap_obs::peak_rss_bytes();
    let report = AppReport {
        findings,
        files_analyzed: files.len(),
        loc,
        parse_errors,
        duration: start.elapsed(),
        stats,
        cache: store
            .zip(stats_before.as_ref())
            .map_or_else(CacheStatsSnapshot::default, |(s, before)| {
                s.stats().snapshot().since(before)
            }),
        lint_ran: false,
        lint: Vec::new(),
        lint_rules: Vec::new(),
        values_ran: values.is_some(),
        dynamic_edges_resolved: edges_resolved,
        dynamic_edges_unresolved: edges_unresolved,
        tool_name: wap_report::TOOL_NAME,
        tool_version: wap_report::TOOL_VERSION,
    };

    // what was derived, by source index, for the lint pass
    let n = sources.len();
    let mut artifacts = ScanArtifacts {
        programs: (0..n).map(|_| None).collect(),
        parse_failed: vec![true; n],
        values: None,
    };
    for (f, program) in files.iter().zip(programs) {
        artifacts.parse_failed[f.src] = false;
        artifacts.programs[f.src] = program.into_inner();
    }
    if let Some(v) = values.filter(|v| v.facts.iter().all(Option::is_some)) {
        let facts = files
            .iter()
            .zip(v.facts)
            .map(|(f, fv)| (f.name.clone(), fv.expect("checked")));
        artifacts.values = Some(facts.collect());
    }
    Some((report, artifacts))
}

/// The decl/parse stage. With a store, each file's decl entry (its
/// declarations, or its parse error) is looked up by content hash and
/// only the misses are parsed; with none, every file is parsed. Returns
/// the parsed files in input order, the programs parsed so far, and the
/// parse errors.
#[allow(clippy::type_complexity)]
fn decl_stage(
    scan: &Scan<'_>,
    ns: &mut Ns,
) -> (
    Vec<FileMeta>,
    Vec<OnceLock<Program>>,
    Vec<(String, ParseError)>,
) {
    let sources = scan.sources;
    let (mut hashes, mut infos): (Vec<String>, Vec<Option<DeclInfo>>) = match scan.store {
        Some(store) => {
            let t = Instant::now();
            let hashes: Vec<String> = scan
                .runtime
                .run(sources.len(), |i| content_hash(&sources[i].1));
            let infos = hashes
                .iter()
                .zip(sources)
                .map(|(h, (name, _))| probe(store, &decl_key(h), name, scan.obs, decode_decl))
                .collect();
            ns.cache += elapsed_ns(t);
            (hashes, infos)
        }
        None => (Vec::new(), sources.iter().map(|_| None).collect()),
    };

    let miss: Vec<usize> = (0..sources.len()).filter(|&i| infos[i].is_none()).collect();
    let t = Instant::now();
    let parsed = scan.runtime.map(miss.clone(), |_, i| {
        let _span = scan.obs.span_file(Phase::Parse, &sources[i].0);
        parse(&sources[i].1)
    });
    ns.parse += elapsed_ns(t);

    let mut programs: Vec<Option<Program>> = sources.iter().map(|_| None).collect();
    let t = Instant::now();
    for (&i, result) in miss.iter().zip(parsed) {
        let info = match result {
            Ok(program) => {
                // declarations are key material: a scan with no store
                // records none
                let info = match scan.store {
                    Some(_) => decl_info(&sources[i].1, &program),
                    None => DeclInfo::Decls {
                        decls: Vec::new(),
                        refs: Vec::new(),
                    },
                };
                programs[i] = Some(program);
                info
            }
            Err(e) => DeclInfo::Unparsed {
                message: e.message().to_string(),
                span: e.span(),
            },
        };
        if let Some(store) = scan.store {
            store.put(&decl_key(&hashes[i]), encode_decl(&info));
        }
        infos[i] = Some(info);
    }
    if scan.store.is_some() {
        ns.cache += elapsed_ns(t);
    }

    let mut files = Vec::new();
    let mut parsed = Vec::new();
    let mut parse_errors = Vec::new();
    for (i, (info, program)) in infos.into_iter().zip(programs).enumerate() {
        let name = sources[i].0.clone();
        match info.expect("decl info resolved above") {
            DeclInfo::Decls { decls, refs } => {
                let hash = hashes.get_mut(i).map(std::mem::take).unwrap_or_default();
                files.push(FileMeta {
                    src: i,
                    name,
                    hash,
                    decls,
                    refs,
                });
                parsed.push(program.map_or_else(OnceLock::new, OnceLock::from));
            }
            DeclInfo::Unparsed { message, span } => {
                parse_errors.push((name, ParseError::new(message, span)));
            }
        }
    }
    (files, parsed, parse_errors)
}

/// A parsed file's decl entry: its declarations with their fingerprints
/// and call targets, and every call target it references.
fn decl_info(src: &str, program: &Program) -> DeclInfo {
    let decls = program
        .functions()
        .into_iter()
        .map(|f| DeclRecord {
            name: f.name.lower().as_str().to_string(),
            fp: function_fingerprint(src, f),
            refs: function_refs(f)
                .into_iter()
                .map(|r| r.as_str().to_string())
                .collect(),
        })
        .collect();
    let refs = referenced_names(program)
        .into_iter()
        .map(|r| r.as_str().to_string())
        .collect();
    DeclInfo::Decls { decls, refs }
}

/// Parses every file in `want` that has no program yet, in parallel. A
/// scan with no store parsed every file up front, so it never gets here
/// with work to do.
///
/// Returns `None` when a file the decl cache recorded as parseable fails
/// to parse — the entry lied (hand-edited, hash collision); it is
/// rejected and the scan re-runs with no store.
fn ensure_parsed(
    scan: &Scan<'_>,
    files: &[FileMeta],
    programs: &[OnceLock<Program>],
    want: &[usize],
    ns: &mut Ns,
) -> Option<()> {
    let mut need: Vec<usize> = want
        .iter()
        .copied()
        .filter(|&i| programs[i].get().is_none())
        .collect();
    need.sort_unstable();
    need.dedup();
    if need.is_empty() {
        return Some(());
    }
    let t = Instant::now();
    let results = scan.runtime.map(need.clone(), |_, i| {
        let _span = scan.obs.span_file(Phase::Parse, &files[i].name);
        parse(&scan.sources[files[i].src].1)
    });
    ns.parse += elapsed_ns(t);
    for (&i, result) in need.iter().zip(results) {
        match result {
            Ok(p) => {
                let _ = programs[i].set(p);
            }
            Err(_) => {
                if let Some(store) = scan.store {
                    store.reject(&decl_key(&files[i].hash));
                }
                return None;
            }
        }
    }
    Some(())
}

/// The value stage's products (`--values`), shared by the taint-pass and
/// findings stages.
struct Values {
    /// Full value facts (snapshots included) by file index, for the files
    /// interpreted this scan.
    facts: Vec<Option<wap_cfg::FileValues>>,
    /// Resolution facts replayed from the cache, by file index.
    replayed: Vec<Option<wap_cfg::ValueResolution>>,
    /// Merged function value summaries, once some stage computed them.
    summaries: Option<HashMap<Symbol, wap_cfg::ValueSummary>>,
    /// Scan-set file names — the include-resolution target universe.
    scan_set: wap_cfg::ScanSet,
}

impl Values {
    /// File `i`'s resolution facts, interpreted or replayed.
    fn resolution(&self, i: usize) -> &wap_cfg::ValueResolution {
        match &self.facts[i] {
            Some(fv) => &fv.resolution,
            None => self.replayed[i].as_ref().expect("interpreted or replayed"),
        }
    }
}

/// Merges per-file value summaries first-declaration-wins in file order —
/// the same canonical owner rule the taint function index applies.
/// `program(i)` is file `i`'s program; a file without one must declare
/// nothing.
pub(crate) fn compute_value_summaries<'p>(
    runtime: &Runtime,
    n: usize,
    program: impl Fn(usize) -> Option<&'p Program> + Sync,
) -> HashMap<Symbol, wap_cfg::ValueSummary> {
    let lists: Vec<Vec<(Symbol, wap_cfg::ValueSummary)>> = runtime.run(n, |i| {
        program(i)
            .map(wap_cfg::summarize_values)
            .unwrap_or_default()
    });
    let mut summaries = HashMap::new();
    for list in lists {
        for (name, s) in list {
            summaries.entry(name).or_insert(s);
        }
    }
    summaries
}

/// The value stage. With a store, every file's `values` entry is looked
/// up and only the misses are interpreted, their resolution facts written
/// back; with none, every file is interpreted. A hit whose dynamic-call
/// targets' declarations changed since it was written is stale, and
/// interpreted like a miss.
fn values_stage(
    scan: &Scan<'_>,
    files: &[FileMeta],
    programs: &[OnceLock<Program>],
    keys: Option<&Keys<'_>>,
    ns: &mut Ns,
) -> Option<Values> {
    let mut v = Values {
        facts: files.iter().map(|_| None).collect(),
        replayed: files.iter().map(|_| None).collect(),
        summaries: None,
        scan_set: wap_cfg::ScanSet::new(&files.iter().map(|f| f.name.clone()).collect()),
    };
    let mut entry_keys = Vec::new();
    if let Some(k) = keys {
        let scanset = fields_hash(files.iter().map(|f| f.name.as_str()));
        entry_keys = files
            .iter()
            .enumerate()
            .map(|(i, f)| values_key(&f.name, &f.hash, &scanset, &k.deps[i], &k.config_fp))
            .collect();
        let t = Instant::now();
        for (i, key) in entry_keys.iter().enumerate() {
            let name = &files[i].name;
            v.replayed[i] = match k.store.probe(key) {
                Some((p, tier)) => match decode_values(&p) {
                    Ok((calls_digest, r)) if calls_digest == k.decls.calls_digest(&r) => {
                        scan.obs.event_file(hit_event(tier), name);
                        Some(r)
                    }
                    Ok(_) => {
                        scan.obs.event_file("cache_stale", name);
                        None
                    }
                    Err(_) => {
                        scan.obs.event_file("cache_corrupt", name);
                        k.store.reject(key);
                        None
                    }
                },
                None => {
                    scan.obs.event_file("cache_miss", name);
                    None
                }
            };
        }
        ns.cache += elapsed_ns(t);
    }

    let miss: Vec<usize> = (0..files.len())
        .filter(|&i| v.replayed[i].is_none())
        .collect();
    if !miss.is_empty() {
        derive_values(scan, files, programs, &mut v, &miss, ns)?;
        if let Some(k) = keys {
            let t = Instant::now();
            for &i in &miss {
                let r = v.resolution(i);
                k.store
                    .put(&entry_keys[i], encode_values(&k.decls.calls_digest(r), r));
            }
            ns.cache += elapsed_ns(t);
        }
    }
    Some(v)
}

/// Interprets the `todo` files over the value lattice, first merging the
/// function value summaries if no earlier stage did — which needs every
/// decl-bearing program.
fn derive_values(
    scan: &Scan<'_>,
    files: &[FileMeta],
    programs: &[OnceLock<Program>],
    v: &mut Values,
    todo: &[usize],
    ns: &mut Ns,
) -> Option<()> {
    let mut want = todo.to_vec();
    if v.summaries.is_none() {
        want.extend((0..files.len()).filter(|&i| !files[i].decls.is_empty()));
    }
    ensure_parsed(scan, files, programs, &want, ns)?;
    let t = Instant::now();
    let summaries: &HashMap<_, _> = v.summaries.get_or_insert_with(|| {
        compute_value_summaries(&scan.runtime, programs.len(), |i| programs[i].get())
    });
    let scan_set = &v.scan_set;
    let computed = scan.runtime.map(todo.to_vec(), |_, i| {
        let _span = scan.obs.span_file(Phase::Values, &files[i].name);
        let program = programs[i].get().expect("parsed for values");
        wap_cfg::analyze_file_values(&files[i].name, program, summaries, scan_set)
    });
    ns.values += elapsed_ns(t);
    for (&i, fv) in todo.iter().zip(computed) {
        v.facts[i] = Some(fv);
    }
    Some(())
}

/// With value analysis on, a file's pass output additionally depends on
/// everything a resolved edge lets it observe: the contents (and
/// dependency digests) of its transitive include targets, and the
/// declaration closures of every resolved dynamic-call target in that
/// include closure. Returns the dependency digests extended accordingly;
/// value-less scans keep the base digests (their key space is disjoint
/// anyway via the config fingerprint).
fn values_deps(
    scan: &Scan<'_>,
    files: &[FileMeta],
    file_index: &HashMap<&str, usize>,
    keys: &Keys<'_>,
    v: &Values,
) -> Vec<String> {
    scan.runtime.run(files.len(), |i| {
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        visited.insert(i);
        let mut work = vec![i];
        while let Some(fi) = work.pop() {
            for targets in v.resolution(fi).includes.values() {
                for t in targets {
                    if let Some(&ti) = file_index.get(t.as_str()) {
                        if visited.insert(ti) {
                            work.push(ti);
                        }
                    }
                }
            }
        }
        let call_seen = keys.decls.closure(
            visited
                .iter()
                .flat_map(|&fi| v.resolution(fi).calls.values().flatten())
                .map(|t| lower(t)),
        );
        let mut fields: Vec<String> = vec![keys.deps[i].clone()];
        for &fi in &visited {
            if fi == i {
                continue;
            }
            fields.push(files[fi].name.clone());
            fields.push(files[fi].hash.clone());
            fields.push(keys.deps[fi].clone());
        }
        fields.extend(keys.decls.rows(&call_seen).flatten().map(str::to_string));
        fields_hash(fields)
    })
}

/// What both taint passes read.
struct TaintInputs<'s, 'p> {
    files: &'s [FileMeta],
    programs: &'p [OnceLock<Program>],
    /// Each program's [`Program::functions`], walked once for both passes.
    functions: &'s [OnceLock<Vec<&'p Function>>],
    resolutions: &'s HashMap<String, FileResolution>,
    /// Files some resolved include points at.
    include_targets: &'s [usize],
}

/// One taint pass. With a store, every file's pass entry is looked up and
/// only the misses are analyzed — parsing exactly the files the
/// incremental contract requires — and their artifacts written back; with
/// none, every file is analyzed.
fn taint_pass(
    scan: &Scan<'_>,
    t_in: &TaintInputs<'_, '_>,
    keys: Option<&Keys<'_>>,
    second: bool,
    ns: &mut Ns,
) -> Option<Vec<PassArtifacts>> {
    let (files, programs) = (t_in.files, t_in.programs);
    let mut entry_keys = Vec::new();
    let mut cached: Vec<Option<PassArtifacts>> = files.iter().map(|_| None).collect();
    if let Some(k) = keys {
        let t = Instant::now();
        entry_keys = files
            .iter()
            .enumerate()
            .map(|(i, f)| pass_key(second, &f.name, &f.hash, &k.deps[i], &k.config_fp))
            .collect();
        for (i, key) in entry_keys.iter().enumerate() {
            cached[i] = probe(k.store, key, &files[i].name, scan.obs, |p| {
                PassArtifacts::from_bytes(p)
            });
        }
        ns.cache += elapsed_ns(t);

        let fresh: Vec<usize> = (0..files.len()).filter(|&i| cached[i].is_none()).collect();
        if !fresh.is_empty() {
            // fresh files must be parsed; so must the canonical owner of
            // every declaration in their dependency closure, the only
            // foreign bodies phase A's lazy walks reach (phase B reads only
            // merged summaries) — and, with value analysis on, every
            // resolved include target, so inlined include execution sees
            // the same programs an uncached run does
            let seen = k
                .decls
                .closure(fresh.iter().flat_map(|&i| files[i].seeds()));
            let mut want = fresh;
            want.extend(
                seen.iter()
                    .filter_map(|n| k.decls.canon.get(n).map(|c| c.owner)),
            );
            want.extend(t_in.include_targets);
            ensure_parsed(scan, files, programs, &want, ns)?;
        }
    }

    let functions: Vec<&[&Function]> = (0..files.len())
        .map(|i| match programs[i].get() {
            Some(p) => t_in.functions[i].get_or_init(|| p.functions()).as_slice(),
            None => &[],
        })
        .collect();
    let inputs: Vec<PassInput<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, f)| PassInput {
            name: f.name.clone(),
            program: programs[i].get(),
            decl_names: match programs[i].get() {
                Some(_) => functions[i].iter().map(|func| func.name.lower()).collect(),
                None => f.decls.iter().map(|d| Symbol::intern(&d.name)).collect(),
            },
            cached: cached[i].take(),
        })
        .collect();

    let t = Instant::now();
    let outcome = run_pass(
        &scan.tool.catalog,
        &scan.tool.config.analysis,
        &inputs,
        &functions,
        t_in.resolutions,
        &scan.runtime,
        second,
        scan.obs,
    );
    ns.taint += elapsed_ns(t);
    if outcome.missing_body {
        // the parse set above missed a body the pass needed: never
        // store or return artifacts built on a stand-in summary
        return None;
    }

    if let Some(k) = keys {
        let t = Instant::now();
        for (i, is_fresh) in outcome.fresh.iter().enumerate() {
            if *is_fresh {
                k.store.put(&entry_keys[i], outcome.artifacts[i].to_bytes());
            }
        }
        ns.cache += elapsed_ns(t);
    }
    Some(outcome.artifacts)
}

/// Symptoms + vote over the sorted candidate stream, one group per file.
/// With a store, every group's findings entry is looked up and only the
/// missing groups are voted — with value facts derived for their files
/// alone — then written back; with none, every group is voted. The lint
/// pass reads every file's value facts, so with it on they are all
/// derived here.
#[allow(clippy::too_many_arguments)]
fn findings_stage(
    scan: &Scan<'_>,
    files: &[FileMeta],
    programs: &[OnceLock<Program>],
    keys: Option<&Keys<'_>>,
    file_index: &HashMap<&str, usize>,
    mut values: Option<&mut Values>,
    candidates: Vec<Candidate>,
    ran_pass2: bool,
    ns: &mut Ns,
) -> Option<Vec<Finding>> {
    // the stream is file-major after dedup_and_sort, so groups are
    // contiguous runs of one file
    struct Group {
        file: usize,
        start: usize,
        end: usize,
        /// The findings entry's key and the group's candidate digest,
        /// with a store.
        entry: Option<(String, String)>,
    }
    let t = Instant::now();
    let mut groups: Vec<Group> = Vec::new();
    let mut k = 0;
    while k < candidates.len() {
        let name = candidates[k].file.as_deref()?;
        let file = *file_index.get(name)?;
        let start = k;
        while k < candidates.len() && candidates[k].file.as_deref() == Some(name) {
            k += 1;
        }
        let entry = keys.map(|keys| {
            let mut w = Writer::new();
            w.seq(k - start);
            for c in &candidates[start..k] {
                write_candidate(&mut w, c);
            }
            let f = &files[file];
            let key = findings_key(name, &f.hash, &keys.deps[file], &keys.config_fp, ran_pass2);
            (key, Blake2s::hash_hex(&w.into_bytes()))
        });
        groups.push(Group {
            file,
            start,
            end: k,
            entry,
        });
    }

    let mut slots: Vec<Option<Finding>> = candidates.iter().map(|_| None).collect();
    let mut candidates: Vec<Option<Candidate>> = candidates.into_iter().map(Some).collect();
    let mut voted: Vec<&Group> = Vec::new();
    for g in &groups {
        let decoded = keys.zip(g.entry.as_ref()).and_then(|(k, (key, digest))| {
            probe(k.store, key, &files[g.file].name, scan.obs, |p| {
                decode_findings(p, digest, g.end - g.start)
            })
        });
        match decoded {
            Some(fs) => {
                for (slot, (prediction, symptoms)) in (g.start..g.end).zip(fs) {
                    let candidate = candidates[slot].take().expect("each candidate once");
                    slots[slot] = Some(Finding {
                        candidate,
                        prediction,
                        symptoms,
                    });
                }
            }
            None => voted.push(g),
        }
    }
    if keys.is_some() {
        ns.cache += elapsed_ns(t);
    }

    // groups are per file, so no file repeats
    let voted_files: Vec<usize> = voted.iter().map(|g| g.file).collect();
    ensure_parsed(scan, files, programs, &voted_files, ns)?;
    if let Some(v) = values.as_deref_mut() {
        // sink-context refinement reads the voted files' value facts
        let needed: Vec<usize> = match scan.options.lint {
            Some(_) => (0..files.len()).collect(),
            None => voted_files,
        };
        let todo: Vec<usize> = needed
            .into_iter()
            .filter(|&i| v.facts[i].is_none())
            .collect();
        if !todo.is_empty() {
            derive_values(scan, files, programs, v, &todo, ns)?;
        }
    }
    let values = values.as_deref();

    // symptom collection + committee voting, one task per candidate
    let t = Instant::now();
    let todo: Vec<(usize, usize, Candidate)> = voted
        .iter()
        .flat_map(|g| (g.start..g.end).map(move |slot| (g.file, slot)))
        .map(|(file, slot)| {
            (
                file,
                slot,
                candidates[slot].take().expect("each candidate once"),
            )
        })
        .collect();
    let computed = scan.runtime.map(todo, |_, (file, slot, candidate)| {
        let _span = scan.obs.span_file(Phase::Vote, &files[file].name);
        let program = programs[file].get().expect("parsed for findings");
        let mut symptoms = collect(program, &candidate, &scan.tool.dynamic_symptoms);
        if let Some(fv) = values.and_then(|v| v.facts[file].as_ref()) {
            refine_with_values(&mut symptoms, fv, &candidate);
        }
        let prediction = scan.tool.predictor.predict(&symptoms);
        let finding = Finding {
            candidate,
            prediction,
            symptoms,
        };
        (slot, finding)
    });
    ns.predict += elapsed_ns(t);
    for (slot, finding) in computed {
        slots[slot] = Some(finding);
    }

    if let Some(k) = keys {
        let t = Instant::now();
        for g in &voted {
            let (key, digest) = g.entry.as_ref().expect("keyed with a store");
            k.store
                .put(key, encode_findings(digest, &slots[g.start..g.end]));
        }
        ns.cache += elapsed_ns(t);
    }
    let findings = slots
        .into_iter()
        .map(|f| f.expect("every candidate resolved"))
        .collect();
    Some(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ToolConfig;

    /// Moving values from the tool to the scan, and deleting the guard
    /// refinement, must not re-key the cache: these are the fingerprints
    /// the tool-level flags produced, so entries written before stay warm.
    #[test]
    fn config_fingerprints_survive_the_move_to_scan_options() {
        let tool = WapTool::new(ToolConfig::wape_full());
        let fp = |values| {
            let options = ScanOptions { values, lint: None };
            config_fingerprint(&tool, &options)
        };
        assert_eq!(
            fp(false),
            "f48ed7ff665ffb17ec3502088ff3b7aedcca61de63f83deb639b12b656418120"
        );
        assert_eq!(
            fp(true),
            "42269b705ae4fd55f12206ce675c4728e798156f8923672ff6f5ee0ea80cf147"
        );
        // packs key only the `cfg` entries, never the shared fingerprint
        let linted = ScanOptions {
            lint: Some(vec![wap_rules::RulePack::wordpress()]),
            ..ScanOptions::default()
        };
        assert_eq!(config_fingerprint(&tool, &linted), fp(false));
    }
}
