//! Incremental analysis: the cached counterpart of
//! [`WapTool::analyze_sources`].
//!
//! A warm run must produce findings **bit-identical** to a cold run at any
//! job count. The module achieves that by caching exactly the artifacts the
//! cold pipeline joins on, never intermediate heuristics:
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
//! to a plain cold run) — a corrupted cache can cost time, never
//! correctness.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

use wap_cache::{CacheStore, CacheTier, CodecError, Reader, Writer};
use wap_mining::{collect, intern_symptom_name, FeatureVector, Prediction};
use wap_php::fingerprint::fields_hash;
use wap_php::{content_hash, parse, Blake2s, ParseError, Program, Span, Symbol};
use wap_runtime::Runtime;
use wap_taint::serial::write_candidate;
use wap_taint::{
    dedup_and_sort, function_fingerprint, function_refs, pass_candidates, referenced_names,
    run_pass_incremental_with_resolutions, Candidate, FileResolution, PassArtifacts, PassInput,
};

use wap_obs::{JobHandle, Phase};

use crate::pipeline::{elapsed_ns, scan_stats, AppReport, Finding, ScanOptions, WapTool};

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
/// seed, analysis options, and whether this scan refines with CFG guards
/// or value analysis. Any difference must yield disjoint keys. Lint packs
/// are not part of it: they key only the `cfg` entries ([`cfg_lint_key`]).
pub(crate) fn config_fingerprint(tool: &WapTool, options: &ScanOptions) -> String {
    let base = [
        tool.catalog.fingerprint_material(),
        format!("{:?}", tool.config.generation),
        tool.config.seed.to_string(),
        format!("{:?}", tool.config.analysis),
        format!("guards:{}", options.guards),
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
/// and the findings cache operate on (mirrors the cold path's `parsed`).
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

fn decode_findings(
    bytes: &[u8],
    expected_digest: &str,
    cands: &[Candidate],
) -> Result<Vec<Finding>, CodecError> {
    let mut r = Reader::new(bytes);
    let digest = r.str()?;
    if digest != expected_digest {
        return Err(CodecError("candidate digest mismatch".into()));
    }
    let n = r.seq()?;
    if n != cands.len() {
        return Err(CodecError(format!(
            "entry has {n} findings, group has {}",
            cands.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for c in cands {
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
        out.push(Finding {
            candidate: c.clone(),
            prediction: Prediction {
                is_false_positive,
                votes,
                justification,
            },
            symptoms: FeatureVector { features, present },
        });
    }
    if !r.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after findings entry",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Parses every file in `want` that has no program yet, in parallel.
///
/// Returns `None` when a file the decl cache recorded as parseable fails
/// to parse — the entry lied (hand-edited, hash collision); it is
/// rejected and the whole run falls back to the cold path.
#[allow(clippy::too_many_arguments)]
fn ensure_parsed(
    runtime: &Runtime,
    store: &CacheStore,
    sources: &[(String, String)],
    files: &[FileMeta],
    programs: &mut [Option<Program>],
    want: &[usize],
    parse_ns: &mut u64,
    obs: JobHandle<'_>,
) -> Option<()> {
    let need: Vec<usize> = want
        .iter()
        .copied()
        .filter(|&i| programs[i].is_none())
        .collect();
    if need.is_empty() {
        return Some(());
    }
    let t = Instant::now();
    let results = runtime.map(need.clone(), |_, i| {
        let _span = obs.span_file(Phase::Parse, &files[i].name);
        parse(&sources[files[i].src].1)
    });
    *parse_ns += elapsed_ns(t);
    for (&i, result) in need.iter().zip(results) {
        match result {
            Ok(p) => programs[i] = Some(p),
            Err(_) => {
                store.reject(&decl_key(&files[i].hash));
                return None;
            }
        }
    }
    Some(())
}

/// The value stage's products (`--values`), shared by the taint-pass and
/// findings stages of a cached run.
struct ValuesState {
    /// Per-file resolution facts, index-aligned with the run's `files`.
    per_file: Vec<wap_cfg::ValueResolution>,
    /// Full value facts (snapshots included) for files analyzed fresh
    /// this run; hit files re-derive them only if a findings group needs
    /// sink contexts.
    file_values: HashMap<usize, wap_cfg::FileValues>,
    /// Merged function value summaries, once some stage computed them.
    summaries: Option<HashMap<Symbol, wap_cfg::ValueSummary>>,
    /// Scan-set file names — the include-resolution target universe.
    known: BTreeSet<String>,
}

/// Merges per-file value summaries first-declaration-wins in file order —
/// the same canonical owner rule the taint function index applies. Files
/// without declarations contribute nothing, so only decl-bearing files
/// need programs.
fn compute_value_summaries(
    runtime: &Runtime,
    files: &[FileMeta],
    programs: &[Option<Program>],
) -> HashMap<Symbol, wap_cfg::ValueSummary> {
    let lists: Vec<Vec<(Symbol, wap_cfg::ValueSummary)>> =
        runtime.run(files.len(), |i| match &programs[i] {
            Some(p) if !files[i].decls.is_empty() => wap_cfg::summarize_values(p),
            _ => Vec::new(),
        });
    let mut summaries = HashMap::new();
    for list in lists {
        for (name, s) in list {
            summaries.entry(name).or_insert(s);
        }
    }
    summaries
}

/// Looks up every file's `values` entry, re-interprets only the misses
/// (which needs the merged summaries, hence every decl-bearing program),
/// and writes fresh resolution facts back. A hit whose dynamic-call
/// targets' declarations changed since it was written is stale, and
/// re-interpreted like a miss.
#[allow(clippy::too_many_arguments)]
fn run_values_cached(
    store: &CacheStore,
    runtime: &Runtime,
    sources: &[(String, String)],
    files: &[FileMeta],
    decls: &DeclIndex<'_>,
    programs: &mut [Option<Program>],
    deps_digests: &[String],
    config_fp: &str,
    parse_ns: &mut u64,
    values_ns: &mut u64,
    cache_ns: &mut u64,
    obs: JobHandle<'_>,
) -> Option<ValuesState> {
    let scanset = fields_hash(files.iter().map(|f| f.name.as_str()));
    let keys: Vec<String> = files
        .iter()
        .enumerate()
        .map(|(i, f)| values_key(&f.name, &f.hash, &scanset, &deps_digests[i], config_fp))
        .collect();
    let t = Instant::now();
    let mut cached: Vec<Option<wap_cfg::ValueResolution>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| match store.probe(k) {
            Some((p, tier)) => match decode_values(&p) {
                Ok((calls_digest, r)) if calls_digest == decls.calls_digest(&r) => {
                    obs.event_file(hit_event(tier), &files[i].name);
                    Some(r)
                }
                Ok(_) => {
                    obs.event_file("cache_stale", &files[i].name);
                    None
                }
                Err(_) => {
                    obs.event_file("cache_corrupt", &files[i].name);
                    store.reject(k);
                    None
                }
            },
            None => {
                obs.event_file("cache_miss", &files[i].name);
                None
            }
        })
        .collect();
    *cache_ns += elapsed_ns(t);

    let mut state = ValuesState {
        per_file: vec![wap_cfg::ValueResolution::default(); files.len()],
        file_values: HashMap::new(),
        summaries: None,
        known: files.iter().map(|f| f.name.clone()).collect(),
    };
    let miss: Vec<usize> = cached
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_none())
        .map(|(i, _)| i)
        .collect();
    if !miss.is_empty() {
        let want: Vec<usize> = files
            .iter()
            .enumerate()
            .filter(|(i, f)| cached[*i].is_none() || !f.decls.is_empty())
            .map(|(i, _)| i)
            .collect();
        ensure_parsed(
            runtime, store, sources, files, programs, &want, parse_ns, obs,
        )?;
        let t = Instant::now();
        let summaries = compute_value_summaries(runtime, files, programs);
        let computed: Vec<wap_cfg::FileValues> = runtime.map(miss.clone(), |_, i| {
            let _span = obs.span_file(Phase::Values, &files[i].name);
            wap_cfg::analyze_file_values(
                &files[i].name,
                programs[i].as_ref().expect("parsed for values"),
                &summaries,
                &state.known,
            )
        });
        *values_ns += elapsed_ns(t);
        let t = Instant::now();
        for (&i, fv) in miss.iter().zip(computed) {
            let calls_digest = decls.calls_digest(&fv.resolution);
            store.put(&keys[i], encode_values(&calls_digest, &fv.resolution));
            state.per_file[i] = fv.resolution.clone();
            state.file_values.insert(i, fv);
        }
        *cache_ns += elapsed_ns(t);
        state.summaries = Some(summaries);
    }
    for (i, c) in cached.iter_mut().enumerate() {
        if let Some(r) = c.take() {
            state.per_file[i] = r;
        }
    }
    Some(state)
}

/// Looks up one pass's artifacts for every file, re-analyzes only the
/// misses (parsing exactly the files the incremental contract requires),
/// and writes fresh artifacts back.
#[allow(clippy::too_many_arguments)]
fn run_cached_pass(
    tool: &WapTool,
    store: &CacheStore,
    runtime: &Runtime,
    sources: &[(String, String)],
    files: &[FileMeta],
    decls: &DeclIndex<'_>,
    programs: &mut [Option<Program>],
    deps_digests: &[String],
    config_fp: &str,
    resolutions: &HashMap<String, FileResolution>,
    include_targets: &[usize],
    second: bool,
    parse_ns: &mut u64,
    taint_ns: &mut u64,
    cache_ns: &mut u64,
    obs: JobHandle<'_>,
) -> Option<Vec<PassArtifacts>> {
    let t = Instant::now();
    let keys: Vec<String> = files
        .iter()
        .enumerate()
        .map(|(i, f)| pass_key(second, &f.name, &f.hash, &deps_digests[i], config_fp))
        .collect();
    let mut cached: Vec<Option<PassArtifacts>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| match store.probe(k) {
            Some((p, tier)) => match PassArtifacts::from_bytes(&p) {
                Ok(a) => {
                    obs.event_file(hit_event(tier), &files[i].name);
                    Some(a)
                }
                Err(_) => {
                    obs.event_file("cache_corrupt", &files[i].name);
                    store.reject(k);
                    None
                }
            },
            None => {
                obs.event_file("cache_miss", &files[i].name);
                None
            }
        })
        .collect();
    *cache_ns += elapsed_ns(t);

    let fresh: Vec<usize> = (0..files.len()).filter(|&i| cached[i].is_none()).collect();
    if !fresh.is_empty() {
        // fresh files must be parsed; so must the canonical owner of
        // every declaration in their dependency closure, the only foreign
        // bodies phase A's lazy walks reach (phase B reads only merged
        // summaries) — and, with value analysis on, every resolved
        // include target, so inlined include execution sees the same
        // programs a cold run does
        let seen = decls.closure(fresh.iter().flat_map(|&i| files[i].seeds()));
        let mut want: BTreeSet<usize> = fresh.iter().copied().collect();
        want.extend(
            seen.iter()
                .filter_map(|n| decls.canon.get(n).map(|c| c.owner)),
        );
        want.extend(include_targets);
        let want: Vec<usize> = want.into_iter().collect();
        ensure_parsed(
            runtime, store, sources, files, programs, &want, parse_ns, obs,
        )?;
    }

    let inputs: Vec<PassInput<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, f)| PassInput {
            name: f.name.clone(),
            program: programs[i].as_ref(),
            decl_names: f.decls.iter().map(|d| Symbol::intern(&d.name)).collect(),
            cached: cached[i].take(),
        })
        .collect();

    let t = Instant::now();
    let outcome = run_pass_incremental_with_resolutions(
        &tool.catalog,
        &tool.config.analysis,
        &inputs,
        resolutions,
        runtime,
        second,
        obs,
    );
    *taint_ns += elapsed_ns(t);
    if outcome.missing_body {
        // the parse set above missed a body the pass needed: never
        // store or return artifacts built on a stand-in summary
        return None;
    }

    let t = Instant::now();
    for (i, is_fresh) in outcome.fresh.iter().enumerate() {
        if *is_fresh {
            store.put(&keys[i], outcome.artifacts[i].to_bytes());
        }
    }
    *cache_ns += elapsed_ns(t);
    Some(outcome.artifacts)
}

/// The cached pipeline. Returns `None` when the input or the cache turns
/// out unsuitable (duplicate file names, a decl entry contradicting the
/// parser, a candidate without a file) — the caller then runs cold.
pub(crate) fn analyze_sources_cached(
    tool: &WapTool,
    store: &CacheStore,
    sources: &[(String, String)],
    options: &ScanOptions,
    obs: JobHandle<'_>,
) -> Option<AppReport> {
    let start = Instant::now();
    let alloc_start = wap_obs::allocations_now();
    let runtime = tool.runtime();
    let stats_before = store.stats().snapshot();
    let mut parse_ns = 0u64;
    let mut taint_ns = 0u64;
    let mut predict_ns = 0u64;
    let mut cache_ns = 0u64;
    let mut cfg_ns = 0u64;
    let mut values_ns = 0u64;

    // per-file grouping assumes names identify files uniquely
    {
        let mut names = HashSet::new();
        if !sources.iter().all(|(n, _)| names.insert(n.as_str())) {
            return None;
        }
    }

    let config_fp = config_fingerprint(tool, options);

    // ---- decl stage: content hash every file, learn its declarations ----
    let t = Instant::now();
    let hashes: Vec<String> = runtime.run(sources.len(), |i| content_hash(&sources[i].1));
    let decl_keys: Vec<String> = hashes.iter().map(|h| decl_key(h)).collect();
    let mut infos: Vec<Option<DeclInfo>> = decl_keys
        .iter()
        .enumerate()
        .map(|(i, key)| match store.probe(key) {
            Some((payload, tier)) => match decode_decl(&payload) {
                Ok(info) => {
                    obs.event_file(hit_event(tier), &sources[i].0);
                    Some(info)
                }
                Err(_) => {
                    obs.event_file("cache_corrupt", &sources[i].0);
                    store.reject(key);
                    None
                }
            },
            None => {
                obs.event_file("cache_miss", &sources[i].0);
                None
            }
        })
        .collect();
    cache_ns += elapsed_ns(t);

    let miss: Vec<usize> = infos
        .iter()
        .enumerate()
        .filter(|(_, x)| x.is_none())
        .map(|(i, _)| i)
        .collect();
    let t = Instant::now();
    let parsed_miss: Vec<Result<Program, ParseError>> = runtime.map(miss.clone(), |_, i| {
        let _span = obs.span_file(Phase::Parse, &sources[i].0);
        parse(&sources[i].1)
    });
    parse_ns += elapsed_ns(t);

    let mut programs_by_src: Vec<Option<Program>> = (0..sources.len()).map(|_| None).collect();
    let t = Instant::now();
    for (&i, result) in miss.iter().zip(parsed_miss) {
        let info = match result {
            Ok(program) => {
                let decls = program
                    .functions()
                    .into_iter()
                    .map(|f| DeclRecord {
                        name: f.name.lower().as_str().to_string(),
                        fp: function_fingerprint(&sources[i].1, f),
                        refs: function_refs(f)
                            .into_iter()
                            .map(|r| r.as_str().to_string())
                            .collect(),
                    })
                    .collect();
                let refs = referenced_names(&program)
                    .into_iter()
                    .map(|r| r.as_str().to_string())
                    .collect();
                programs_by_src[i] = Some(program);
                DeclInfo::Decls { decls, refs }
            }
            Err(e) => DeclInfo::Unparsed {
                message: e.message().to_string(),
                span: e.span(),
            },
        };
        store.put(&decl_keys[i], encode_decl(&info));
        infos[i] = Some(info);
    }
    cache_ns += elapsed_ns(t);

    // ---- split into parsed-ok files (analysis inputs) and parse errors ----
    let mut parse_errors: Vec<(String, ParseError)> = Vec::new();
    let mut loc = 0usize;
    let mut files: Vec<FileMeta> = Vec::new();
    let mut programs: Vec<Option<Program>> = Vec::new();
    for (i, info) in infos.iter().enumerate() {
        match info.as_ref().expect("decl info resolved above") {
            DeclInfo::Decls { decls, refs } => {
                // only successfully parsed files count as analyzed LoC
                loc += sources[i].1.lines().count();
                files.push(FileMeta {
                    src: i,
                    name: sources[i].0.clone(),
                    hash: hashes[i].clone(),
                    decls: decls.clone(),
                    refs: refs.clone(),
                });
                programs.push(programs_by_src[i].take());
            }
            DeclInfo::Unparsed { message, span } => {
                parse_errors.push((
                    sources[i].0.clone(),
                    ParseError::new(message.clone(), *span),
                ));
            }
        }
    }

    // ---- per-file dependency digests ----
    // A file's pass output depends on exactly the canonical declarations
    // in its dependency closure, so its digest covers that closure and
    // nothing else: editing one function re-keys only its own file and
    // the files that can actually observe the change.
    let t = Instant::now();
    let decls = DeclIndex::new(&files);
    let deps_digests: Vec<String> = runtime.run(files.len(), |i| {
        fields_hash(decls.rows(&decls.closure(files[i].seeds())).flatten())
    });
    cache_ns += elapsed_ns(t);

    let file_index: HashMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();

    // ---- value analysis (`--values`): cached per-file resolutions ----
    let mut values_state = if options.values {
        Some(run_values_cached(
            store,
            &runtime,
            sources,
            &files,
            &decls,
            &mut programs,
            &deps_digests,
            &config_fp,
            &mut parse_ns,
            &mut values_ns,
            &mut cache_ns,
            obs,
        )?)
    } else {
        None
    };

    // the taint engine's resolution view: only files with at least one
    // resolved include or call appear (mirrors the cold path)
    let taint_resolutions: HashMap<String, FileResolution> = values_state
        .as_ref()
        .map(|vs| {
            vs.per_file
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.includes.is_empty() || !r.calls.is_empty())
                .map(|(i, r)| {
                    (
                        files[i].name.clone(),
                        FileResolution {
                            includes: r.includes.iter().map(|(k, v)| (*k, v.clone())).collect(),
                            calls: r.calls.iter().map(|(k, v)| (*k, v.clone())).collect(),
                        },
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    // files some resolved include points at: parsed alongside any pass
    // miss so inlined include execution matches a cold run
    let include_targets: Vec<usize> = values_state
        .as_ref()
        .map(|vs| {
            let set: BTreeSet<usize> = vs
                .per_file
                .iter()
                .flat_map(|r| r.includes.values())
                .flatten()
                .filter_map(|t| file_index.get(t.as_str()).copied())
                .collect();
            set.into_iter().collect()
        })
        .unwrap_or_default();

    // With value analysis on, a file's pass output additionally depends
    // on everything a resolved edge lets it observe: the contents (and
    // dependency digests) of its transitive include targets, and the
    // declaration closures of every resolved dynamic-call target in that
    // include closure. Extend the digests keying pass and findings
    // entries accordingly; value-less runs keep the base digests (their
    // key space is disjoint anyway via the config fingerprint).
    let deps_digests: Vec<String> = if let Some(vs) = &values_state {
        let t = Instant::now();
        let extended = runtime.run(files.len(), |i| {
            let mut visited: BTreeSet<usize> = BTreeSet::new();
            visited.insert(i);
            let mut work = vec![i];
            while let Some(fi) = work.pop() {
                for targets in vs.per_file[fi].includes.values() {
                    for t in targets {
                        if let Some(&ti) = file_index.get(t.as_str()) {
                            if visited.insert(ti) {
                                work.push(ti);
                            }
                        }
                    }
                }
            }
            let call_seen = decls.closure(
                visited
                    .iter()
                    .flat_map(|&fi| vs.per_file[fi].calls.values().flatten())
                    .map(|t| lower(t)),
            );
            let mut fields: Vec<String> = vec![deps_digests[i].clone()];
            for &fi in &visited {
                if fi == i {
                    continue;
                }
                fields.push(files[fi].name.clone());
                fields.push(files[fi].hash.clone());
                fields.push(deps_digests[fi].clone());
            }
            fields.extend(decls.rows(&call_seen).flatten().map(str::to_string));
            fields_hash(fields)
        });
        cache_ns += elapsed_ns(t);
        extended
    } else {
        deps_digests
    };

    // ---- taint passes ----
    let p1 = run_cached_pass(
        tool,
        store,
        &runtime,
        sources,
        &files,
        &decls,
        &mut programs,
        &deps_digests,
        &config_fp,
        &taint_resolutions,
        &include_targets,
        false,
        &mut parse_ns,
        &mut taint_ns,
        &mut cache_ns,
        obs,
    )?;
    let store_seen = p1.iter().any(PassArtifacts::store_seen);
    let ran_pass2 = tool.config.analysis.second_order && store_seen;
    let mut candidates = pass_candidates(&p1);
    if ran_pass2 {
        let p2 = run_cached_pass(
            tool,
            store,
            &runtime,
            sources,
            &files,
            &decls,
            &mut programs,
            &deps_digests,
            &config_fp,
            &taint_resolutions,
            &include_targets,
            true,
            &mut parse_ns,
            &mut taint_ns,
            &mut cache_ns,
            obs,
        )?;
        candidates.extend(pass_candidates(&p2));
    }
    let candidates = dedup_and_sort(candidates);

    // ---- findings: per-file groups over the sorted candidate stream ----
    // the stream is file-major after dedup_and_sort, so groups are
    // contiguous runs of one file
    struct Group {
        file: usize,
        start: usize,
        end: usize,
        key: String,
        digest: String,
    }
    let t = Instant::now();
    let mut groups: Vec<Group> = Vec::new();
    {
        let mut k = 0;
        while k < candidates.len() {
            let name = candidates[k].file.as_deref()?;
            let file = *file_index.get(name)?;
            let start = k;
            while k < candidates.len() && candidates[k].file.as_deref() == Some(name) {
                k += 1;
            }
            let mut w = Writer::new();
            w.seq(k - start);
            for c in &candidates[start..k] {
                write_candidate(&mut w, c);
            }
            groups.push(Group {
                file,
                start,
                end: k,
                key: findings_key(
                    name,
                    &files[file].hash,
                    &deps_digests[file],
                    &config_fp,
                    ran_pass2,
                ),
                digest: Blake2s::hash_hex(&w.into_bytes()),
            });
        }
    }

    let mut slots: Vec<Option<Finding>> = candidates.iter().map(|_| None).collect();
    let mut miss_groups: Vec<usize> = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let decoded = match store.probe(&g.key) {
            Some((payload, tier)) => {
                match decode_findings(&payload, &g.digest, &candidates[g.start..g.end]) {
                    Ok(fs) => {
                        obs.event_file(hit_event(tier), &files[g.file].name);
                        Some(fs)
                    }
                    Err(_) => {
                        obs.event_file("cache_corrupt", &files[g.file].name);
                        store.reject(&g.key);
                        None
                    }
                }
            }
            None => {
                obs.event_file("cache_miss", &files[g.file].name);
                None
            }
        };
        match decoded {
            Some(fs) => {
                for (k, f) in fs.into_iter().enumerate() {
                    slots[g.start + k] = Some(f);
                }
            }
            None => miss_groups.push(gi),
        }
    }
    cache_ns += elapsed_ns(t);

    if !miss_groups.is_empty() {
        let mut want: Vec<usize> = miss_groups.iter().map(|&gi| groups[gi].file).collect();
        // sink-context refinement re-derives value facts for hit files;
        // the merged summaries need every decl-bearing program
        let values_todo: Vec<usize> = values_state
            .as_ref()
            .map(|vs| {
                want.iter()
                    .copied()
                    .filter(|fi| !vs.file_values.contains_key(fi))
                    .collect()
            })
            .unwrap_or_default();
        if !values_todo.is_empty() {
            want.extend(
                files
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| !f.decls.is_empty())
                    .map(|(i, _)| i),
            );
        }
        ensure_parsed(
            &runtime,
            store,
            sources,
            &files,
            &mut programs,
            &want,
            &mut parse_ns,
            obs,
        )?;
        if let Some(vs) = &mut values_state {
            if !values_todo.is_empty() {
                if vs.summaries.is_none() {
                    vs.summaries = Some(compute_value_summaries(&runtime, &files, &programs));
                }
                let summaries = vs.summaries.as_ref().expect("summaries just ensured");
                let t = Instant::now();
                let computed: Vec<wap_cfg::FileValues> =
                    runtime.map(values_todo.clone(), |_, fi| {
                        let _span = obs.span_file(Phase::Values, &files[fi].name);
                        wap_cfg::analyze_file_values(
                            &files[fi].name,
                            programs[fi].as_ref().expect("parsed for findings"),
                            summaries,
                            &vs.known,
                        )
                    });
                values_ns += elapsed_ns(t);
                for (fi, fv) in values_todo.into_iter().zip(computed) {
                    vs.file_values.insert(fi, fv);
                }
            }
        }
        let todo: Vec<usize> = miss_groups
            .iter()
            .flat_map(|&gi| groups[gi].start..groups[gi].end)
            .collect();
        let by_candidate: HashMap<usize, usize> = miss_groups
            .iter()
            .flat_map(|&gi| (groups[gi].start..groups[gi].end).map(move |k| (k, gi)))
            .collect();
        // CFG lowering for guard refinement, one graph set per file whose
        // candidates are re-voted: refinement reads no other file's graphs
        let cfgs_by_file: HashMap<usize, wap_cfg::FileCfgs> = if options.guards {
            let t = Instant::now();
            // groups are per file, so no file repeats
            let uniq: Vec<usize> = miss_groups.iter().map(|&gi| groups[gi].file).collect();
            let built = runtime.map(uniq.clone(), |_, fi| {
                let _span = obs.span_file(Phase::Cfg, &files[fi].name);
                wap_cfg::lower_program(programs[fi].as_ref().expect("parsed for findings"))
            });
            cfg_ns += elapsed_ns(t);
            uniq.into_iter().zip(built).collect()
        } else {
            HashMap::new()
        };
        // symptom collection + committee voting, one task per candidate,
        // exactly as the cold path fans out
        let t = Instant::now();
        let computed = runtime.map(todo.clone(), |_, k| {
            let gi = by_candidate[&k];
            let _span = obs.span_file(Phase::Vote, &files[groups[gi].file].name);
            let program = programs[groups[gi].file]
                .as_ref()
                .expect("parsed for findings");
            let candidate = candidates[k].clone();
            let mut symptoms = collect(program, &candidate, &tool.dynamic_symptoms);
            if options.guards {
                if let Some(file_cfgs) = cfgs_by_file.get(&groups[gi].file) {
                    crate::pipeline::refine_with_cfg(&mut symptoms, file_cfgs, &candidate);
                }
            }
            if let Some(vs) = &values_state {
                if let Some(fv) = vs.file_values.get(&groups[gi].file) {
                    crate::pipeline::refine_with_values(&mut symptoms, fv, &candidate);
                }
            }
            let prediction = tool.predictor.predict(&symptoms);
            Finding {
                candidate,
                prediction,
                symptoms,
            }
        });
        predict_ns += elapsed_ns(t);
        for (k, f) in todo.into_iter().zip(computed) {
            slots[k] = Some(f);
        }
        let t = Instant::now();
        for &gi in &miss_groups {
            let g = &groups[gi];
            store.put(&g.key, encode_findings(&g.digest, &slots[g.start..g.end]));
        }
        cache_ns += elapsed_ns(t);
    }

    let findings: Vec<Finding> = slots
        .into_iter()
        .map(|f| f.expect("every candidate resolved"))
        .collect();

    let (edges_resolved, edges_unresolved) = values_state
        .as_ref()
        .map(|vs| {
            vs.per_file.iter().fold((0, 0), |(res, unres), r| {
                let (a, b) = r.edge_counts();
                (res + a, unres + b)
            })
        })
        .unwrap_or((0, 0));

    let mut stats = scan_stats(obs, parse_ns, taint_ns, predict_ns, cache_ns);
    stats.set_phase_ns(Phase::Cfg, cfg_ns);
    if values_state.is_some() {
        stats.set_phase_ns(Phase::Values, values_ns);
    }
    stats.allocations = wap_obs::allocations_now().saturating_sub(alloc_start);
    stats.peak_rss_bytes = wap_obs::peak_rss_bytes();
    Some(AppReport {
        findings,
        files_analyzed: files.len(),
        loc,
        parse_errors,
        duration: start.elapsed(),
        stats,
        cache: store.stats().snapshot().since(&stats_before),
        lint_ran: false,
        lint: Vec::new(),
        lint_rules: Vec::new(),
        values_ran: values_state.is_some(),
        dynamic_edges_resolved: edges_resolved,
        dynamic_edges_unresolved: edges_unresolved,
        tool_name: wap_report::TOOL_NAME,
        tool_version: wap_report::TOOL_VERSION,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ToolConfig;

    /// Moving guards and values from the tool to the scan must not re-key
    /// the cache: these are the fingerprints the tool-level flags
    /// produced, so entries written before the move stay warm.
    #[test]
    fn config_fingerprints_survive_the_move_to_scan_options() {
        let tool = WapTool::new(ToolConfig::wape_full());
        let fp = |guards, values| {
            let options = ScanOptions {
                guards,
                values,
                lint: None,
            };
            config_fingerprint(&tool, &options)
        };
        assert_eq!(
            fp(false, false),
            "f48ed7ff665ffb17ec3502088ff3b7aedcca61de63f83deb639b12b656418120"
        );
        assert_eq!(
            fp(true, false),
            "baa3b05a34e453b1591d97d99697dd02bab3bee3f2d2ed4d5dabd2114d8b031c"
        );
        assert_eq!(
            fp(false, true),
            "42269b705ae4fd55f12206ce675c4728e798156f8923672ff6f5ee0ea80cf147"
        );
        // packs key only the `cfg` entries, never the shared fingerprint
        let linted = ScanOptions {
            lint: Some(vec![wap_rules::RulePack::wordpress()]),
            ..ScanOptions::default()
        };
        assert_eq!(config_fingerprint(&tool, &linted), fp(false, false));
    }
}
