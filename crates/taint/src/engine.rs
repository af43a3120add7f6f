//! The taint analysis engine.
//!
//! Walks the AST of every file (the paper's tree-walker detectors), tracking
//! how untrusted data flows from entry points through variables, string
//! construction, and user-defined functions, and reporting a [`Candidate`]
//! whenever tainted data reaches a sensitive sink without passing through a
//! sanitizer recognized for that class.
//!
//! The engine is deliberately faithful to WAP's design, including its known
//! blind spot: *validation* (e.g. `is_int` guards, `preg_match` checks) does
//! **not** stop taint — that is exactly what produces the false positives
//! the data-mining predictor exists to catch (§II).

use crate::calls::{CallInfo, CallTable};
use crate::finding::Candidate;
use crate::scc::strongly_connected;
use crate::state::{TaintState, TaintStep};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use wap_catalog::{Catalog, SinkArgs, VulnClass};
use wap_obs::Phase;
use wap_php::ast::*;
use wap_php::fingerprint::fields_hash;
use wap_php::flow::{self, AbstractWalk, LOOP_PASSES};
use wap_php::Span;
use wap_php::Symbol;
use wap_runtime::Runtime;

/// Tuning knobs for an analysis run.
#[derive(Clone)]
pub struct AnalysisOptions {
    /// Follow flows through user-defined functions (summaries). Turning
    /// this off is the `ablation-interproc` configuration.
    pub interprocedural: bool,
    /// Second-order (stored XSS) analysis: when tainted data is written
    /// into the database by an INSERT/UPDATE, a second pass treats the
    /// results of `mysql_fetch_*` as tainted stored data, so echoing them
    /// is reported as stored XSS. Off by default (matches the headline
    /// tables); turn on for the extension experiment.
    pub second_order: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            interprocedural: true,
            second_order: false,
        }
    }
}

// The `Debug` text is cache-key material (`wap-core`'s config
// fingerprint), so it still lists the walker's loop bound as a field:
// fingerprints, and with them existing caches, stay valid.
impl fmt::Debug for AnalysisOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisOptions")
            .field("interprocedural", &self.interprocedural)
            .field("loop_passes", &LOOP_PASSES)
            .field("second_order", &self.second_order)
            .finish()
    }
}

/// A named source file to analyze.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// File name (reported in candidates).
    pub name: String,
    /// Parsed program.
    pub program: Program,
}

/// Analyzes a set of files as one application: user functions defined in
/// any file are visible to all files, mirroring PHP includes.
///
/// Returns all candidate vulnerabilities, ordered by file and line.
///
/// # Examples
///
/// ```
/// use wap_php::parse;
/// use wap_taint::{analyze, AnalysisOptions, SourceFile};
/// use wap_catalog::Catalog;
///
/// let program = parse(r#"<?php
///     $id = $_GET['id'];
///     mysql_query("SELECT * FROM users WHERE id = $id");
/// "#)?;
/// let files = vec![SourceFile { name: "index.php".into(), program }];
/// let found = analyze(&Catalog::wape(), &AnalysisOptions::default(), &files);
/// assert_eq!(found.len(), 1);
/// assert_eq!(found[0].sink, "mysql_query");
/// # Ok::<(), wap_php::ParseError>(())
/// ```
pub fn analyze(
    catalog: &Catalog,
    options: &AnalysisOptions,
    files: &[SourceFile],
) -> Vec<Candidate> {
    let runtime = Runtime::serial();
    let obs = wap_obs::disabled().job();
    // one walk per file finds its declarations and their call targets
    // for both passes
    let functions: Vec<Vec<&Function>> = files.iter().map(|f| f.program.functions()).collect();
    let functions: Vec<&[&Function]> = functions.iter().map(Vec::as_slice).collect();
    let refs: Vec<Vec<Vec<Symbol>>> = functions
        .iter()
        .map(|funcs| {
            if options.interprocedural {
                funcs.iter().map(|func| function_refs(func)).collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let inputs: Vec<PassInput<'_>> = files
        .iter()
        .zip(&functions)
        .zip(&refs)
        .map(|((f, funcs), refs)| PassInput {
            name: f.name.clone(),
            program: Some(&f.program),
            decl_names: funcs.iter().map(|func| func.name.lower()).collect(),
            decl_refs: refs,
            cached: None,
        })
        .collect();
    let no_resolutions = HashMap::new();
    let pass = |fetch_is_tainted| {
        let outcome = run_pass(
            catalog,
            options,
            &inputs,
            &functions,
            &no_resolutions,
            &runtime,
            fetch_is_tainted,
            obs,
        );
        let store_seen = outcome.artifacts.iter().any(|a| a.store_seen);
        (pass_candidates(&outcome.artifacts), store_seen)
    };
    let (mut candidates, store_seen) = pass(false);
    if options.second_order && store_seen {
        // second-order pass: stored data coming back from the database is
        // attacker-controlled; duplicates are removed by the final dedup
        let (more, _) = pass(true);
        candidates.extend(more);
    }
    dedup_and_sort(candidates)
}

/// Everything a phase-A task hands back for one file: the summaries this
/// file canonically owns, the candidates found inside function bodies, and
/// the literal-tracking state the same file's phase-B task resumes from.
struct PhaseA {
    summaries: Summaries,
    candidates: Vec<Candidate>,
    state: CarriedState,
    store_seen: bool,
}

/// The per-file artifacts of one analysis pass: everything the pass
/// barrier consumes and everything needed to replay this file's
/// contribution without re-analyzing it. This is the unit the incremental
/// cache stores (serialized via [`crate::serial`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassArtifacts {
    /// Summaries of the functions this file canonically declares.
    pub(crate) summaries: Summaries,
    /// Candidates reported while summarizing function bodies (phase A).
    pub(crate) a_candidates: Vec<Candidate>,
    /// Candidates reported by the top-level flow (phase B).
    pub(crate) b_candidates: Vec<Candidate>,
    /// Whether this file stored tainted data via INSERT/UPDATE/REPLACE.
    pub(crate) store_seen: bool,
}

impl PassArtifacts {
    /// Whether this file stored tainted data (drives the second-order pass).
    pub fn store_seen(&self) -> bool {
        self.store_seen
    }

    /// Total candidates this file contributed in this pass.
    pub fn candidate_count(&self) -> usize {
        self.a_candidates.len() + self.b_candidates.len()
    }
}

/// One file fed into [`run_pass`].
///
/// Contract (upheld by `wap-core`'s cache orchestration):
/// - `decl_names` lists the lowercased function names the file declares,
///   in declaration order — for a parsed file these are the lowercased
///   names of its program's [`Program::functions`].
/// - With interprocedural analysis on, a fresh file's `decl_refs` holds
///   each of those declarations' [`function_refs`], in the same order.
///   The pass reads the call graph from it and walks no body for it.
/// - `program` must be `Some` for every file analyzed fresh
///   (`cached == None`). A cached file's program is read only when a
///   resolved include inlines it; its summaries come from its artifacts.
/// - Files that reach each other through function bodies are fresh
///   together: if a file is fresh, so is every file in its strongly
///   connected component of the file-level call graph (an edge runs from
///   a file to the owner of each canonical declaration one of its own
///   canonical declarations calls, by [`function_refs`]). A cached
///   file's summaries are then final for every fresh caller, and a
///   recursive component is re-derived whole, exactly as in an uncached
///   run.
pub struct PassInput<'a> {
    /// File name (reported in candidates).
    pub name: String,
    /// Parsed program, when available this run.
    pub program: Option<&'a Program>,
    /// Lowercased declared function names, in declaration order.
    pub decl_names: Vec<Symbol>,
    /// Each declaration's call targets ([`function_refs`]), parallel to
    /// `decl_names`; read only for a fresh file with interprocedural
    /// analysis on.
    pub decl_refs: &'a [Vec<Symbol>],
    /// Artifacts replayed from the cache, or `None` to analyze fresh.
    pub cached: Option<PassArtifacts>,
}

/// Outcome of an incremental pass over a file set.
pub struct PassOutcome {
    /// Per-file artifacts, in input order: cached entries passed through
    /// untouched, fresh files newly computed.
    pub artifacts: Vec<PassArtifacts>,
    /// Which artifacts were computed fresh this run (parallel to
    /// `artifacts`) — these are the entries worth writing to the cache.
    pub fresh: Vec<bool>,
}

/// Lowercased names of every call target a program references: plain
/// function calls, method calls (the engine's user-method lookup is
/// class-insensitive, by bare method name), and static-call method names.
/// Sorted and deduplicated.
///
/// These are the only names through which a file's analysis can depend on
/// another file's declarations, so the incremental cache uses them to
/// scope invalidation to actual dependents of an edited function.
pub fn referenced_names(program: &Program) -> Vec<Symbol> {
    let mut c = CallTargets(Vec::new());
    use wap_php::visitor::Visitor as _;
    c.visit_program(program);
    c.finish()
}

/// [`referenced_names`] restricted to one function declaration (its body,
/// parameter defaults, and any nested declarations).
pub fn function_refs(func: &Function) -> Vec<Symbol> {
    let mut c = CallTargets(Vec::new());
    use wap_php::visitor::Visitor as _;
    c.visit_function(func);
    c.finish()
}

struct CallTargets(Vec<Symbol>);

impl CallTargets {
    fn finish(mut self) -> Vec<Symbol> {
        self.0.sort_unstable();
        self.0.dedup();
        self.0
    }
}

impl wap_php::visitor::Visitor for CallTargets {
    fn visit_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Name(n) = &callee.kind {
                    self.0.push(n.lower());
                }
            }
            ExprKind::MethodCall { method, .. } | ExprKind::StaticCall { method, .. } => {
                self.0.push(method.lower());
            }
            _ => {}
        }
        wap_php::visitor::walk_expr(self, e);
    }
}

/// A stable fingerprint of one function declaration, used by the
/// incremental cache to detect when any callee a file might depend on has
/// changed.
///
/// Hashes the declaration's source slice plus its position (start offset
/// and line), so it is exactly as sensitive as the Debug-format AST hash
/// it replaced — summaries carry absolute spans, so a declaration that
/// merely moves must still re-fingerprint — while reading only the
/// function's bytes instead of formatting its whole AST.
pub fn function_fingerprint(src: &str, func: &Function) -> String {
    let start = func.span.start() as usize;
    let end = (func.span.end() as usize).min(src.len());
    let text: &[u8] = src.as_bytes().get(start..end.max(start)).unwrap_or(b"");
    let start_bytes = func.span.start().to_le_bytes();
    let line_bytes = func.span.line().to_le_bytes();
    fields_hash([
        func.name.as_str().as_bytes(),
        &start_bytes[..],
        &line_bytes[..],
        text,
    ])
}

/// Value-analysis resolution facts for one file, produced by
/// `wap-cfg::values` and consumed by phase B: extra call-graph edges the
/// purely syntactic walk cannot see.
///
/// Offsets are the `span.start()` of the include's *path expression*
/// (for `includes`) and of the *call expression* (for `calls`) — the same
/// keys `wap_cfg::ValueResolution` records, so `wap-core` can convert one
/// into the other without re-deriving spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileResolution {
    /// Include path-expression start offset → resolved scan-set file
    /// names (sorted). Phase B executes each target's top-level
    /// statements inline, attributing candidates to the included file.
    pub includes: HashMap<u32, Vec<String>>,
    /// Dynamic call-expression start offset → resolved function names
    /// (sorted). Phase B dispatches the call to each target's summary
    /// instead of the conservative join-all-arguments fallback.
    pub calls: HashMap<u32, Vec<String>>,
}

/// Shared, read-only view of every file's resolution facts plus the
/// parsed programs includes can be inlined from. Copied into each
/// phase-B engine; phase A never resolves (summaries must not depend on
/// other files' top-level flow).
#[derive(Clone, Copy)]
struct ResolveCtx<'a> {
    resolutions: &'a HashMap<String, FileResolution>,
    programs: &'a HashMap<&'a str, &'a Program>,
}

/// Re-executing resolved includes nests at most this deep (cycles are
/// cut by the include stack; this bounds pathological chains).
const MAX_INCLUDE_DEPTH: usize = 8;

/// Canonical owner of every user function name: the file of its first
/// declaration in (file order, declaration order).
type FnIndex = HashMap<Symbol, usize>;

fn build_fn_index(files: &[PassInput<'_>]) -> FnIndex {
    let mut index = FnIndex::new();
    for (i, f) in files.iter().enumerate() {
        for name in &f.decl_names {
            index.entry(*name).or_insert(i);
        }
    }
    index
}

/// One canonical function a pass walks: its lowercased name, its owning
/// file and its declaration.
type Decl<'a> = (Symbol, usize, &'a Function);

/// One phase-A task: fresh files that reach each other through function
/// bodies (almost always a single file), and their canonical functions'
/// strongly connected components in walk order, callees first.
struct Task {
    files: Vec<usize>,
    components: Vec<Component>,
}

/// Functions summarized together: one function, or the members of a
/// recursion, walked in plan order until their summaries stop changing.
struct Component {
    /// Indices into the plan's functions, which are in file order, then
    /// name order.
    members: Vec<usize>,
    recursive: bool,
}

/// Plans phase A from the call graph of the fresh files' canonical
/// functions, with an edge from each function to every fresh canonical
/// function its body calls (its [`PassInput::decl_refs`] entry; none when
/// interprocedural analysis is off). Calls into cached files need no
/// edge: their summaries are final. Files whose functions reach each
/// other share a task; tasks come in waves, each task after every task
/// owning one of its callees, so a task reads only finished summaries of
/// other files.
fn plan_phase_a<'a>(
    options: &AnalysisOptions,
    files: &[PassInput<'a>],
    functions: &[&[&'a Function]],
    index: &FnIndex,
) -> (Vec<Decl<'a>>, Vec<Vec<Task>>) {
    // the fresh files' canonical functions with the names they call, in
    // file order, then name order (the order ties break in); a name
    // declared twice in its owning file keeps its first declaration
    let mut nodes: Vec<Decl<'a>> = Vec::new();
    let mut refs: Vec<&[Symbol]> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let decls = f.decl_names.iter().zip(functions[i]).enumerate();
        let mut own: Vec<(Decl<'a>, &[Symbol])> = decls
            .filter(|(_, (name, _))| f.cached.is_none() && index.get(*name) == Some(&i))
            .map(|(k, (name, func))| {
                let calls = if options.interprocedural {
                    f.decl_refs[k].as_slice()
                } else {
                    &[]
                };
                ((*name, i, *func), calls)
            })
            .collect();
        own.sort_by_key(|(d, _)| d.0);
        own.dedup_by_key(|(d, _)| d.0);
        for (decl, calls) in own {
            nodes.push(decl);
            refs.push(calls);
        }
    }
    let node_of: HashMap<Symbol, usize> = nodes.iter().enumerate().map(|(v, d)| (d.0, v)).collect();
    let calls: Vec<Vec<usize>> = refs
        .iter()
        .map(|rs| rs.iter().filter_map(|r| node_of.get(r).copied()).collect())
        .collect();

    // files reach each other through their functions' calls; a cached
    // file has no functions here, so it is a task of its own with no work
    let mut file_calls: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
    for (&(_, owner, _), cs) in nodes.iter().zip(&calls) {
        file_calls[owner].extend(cs.iter().map(|&w| nodes[w].1));
    }
    let groups = strongly_connected(&file_calls);
    let mut group_of = vec![0; files.len()];
    for (g, members) in groups.iter().enumerate() {
        for &i in members {
            group_of[i] = g;
        }
    }
    // a task's wave is one past the latest wave among its callees' tasks,
    // which complete first
    let mut wave = vec![0; groups.len()];
    for (g, members) in groups.iter().enumerate() {
        for c in members.iter().flat_map(|&i| &file_calls[i]) {
            if group_of[*c] != g {
                wave[g] = wave[g].max(wave[group_of[*c]] + 1);
            }
        }
    }

    // the walk order: the components of the calls inside each task
    let same_task = |v: usize, w: usize| group_of[nodes[v].1] == group_of[nodes[w].1];
    let local: Vec<Vec<usize>> = calls
        .iter()
        .enumerate()
        .map(|(v, cs)| cs.iter().copied().filter(|&w| same_task(v, w)).collect())
        .collect();
    let mut components: Vec<Vec<Component>> = groups.iter().map(|_| Vec::new()).collect();
    for members in strongly_connected(&local) {
        let v = members[0];
        let recursive = members.len() > 1 || local[v].contains(&v);
        components[group_of[nodes[v].1]].push(Component { members, recursive });
    }
    let mut waves: Vec<Vec<Task>> = Vec::new();
    for ((members, components), w) in groups.into_iter().zip(components).zip(wave) {
        if files[members[0]].cached.is_some() {
            continue;
        }
        if waves.len() <= w {
            waves.resize_with(w + 1, Vec::new);
        }
        waves[w].push(Task {
            files: members,
            components,
        });
    }
    (nodes, waves)
}

/// Runs one analysis pass, re-analyzing only the files without cached
/// artifacts. Files are independent tasks fanned out over `runtime` in
/// two parallel phases.
///
/// **Phase A** summarizes every fresh file's canonical functions
/// bottom-up over the call graph's strongly connected components: each
/// function is walked by its owning file's task, after every function it
/// calls, and the members of a recursion are walked until their summaries
/// stop changing. Each summary is computed exactly once, and every use of
/// it — a caller in any file, phase B — is a lookup. Files whose function
/// bodies reach each other are walked by one task; a task that calls into
/// another fresh file's functions runs in a later wave than that file's
/// task. Summaries of cached files come from their artifacts.
///
/// **Phase B** runs every fresh file's top-level flow against the merged
/// summaries. Joins are index-ordered, so for a fixed input the outcome is
/// bit-identical for any job count and any cached/fresh split that keeps
/// the [`PassInput`] contract; `Runtime::serial()` runs the same
/// decomposition inline.
///
/// `functions[i]` is `files[i]`'s [`Program::functions`], or empty when
/// the file comes without a program, so a caller running both passes
/// walks each program once. `resolutions` are value-analysis facts (see
/// [`FileResolution`]): phase B inlines resolved includes and dispatches
/// resolved dynamic calls. An empty map leaves the pass purely syntactic.
#[allow(clippy::too_many_arguments)]
pub fn run_pass<'a>(
    catalog: &Catalog,
    options: &AnalysisOptions,
    files: &[PassInput<'a>],
    functions: &[&[&'a Function]],
    resolutions: &HashMap<String, FileResolution>,
    runtime: &Runtime,
    fetch_is_tainted: bool,
    obs: wap_obs::JobHandle<'_>,
) -> PassOutcome {
    let index = build_fn_index(files);
    let calls = CallTable::new(catalog);
    let programs_by_name: HashMap<&str, &Program> = files
        .iter()
        .filter_map(|f| f.program.map(|p| (f.name.as_str(), p)))
        .collect();
    let resolve = (!resolutions.is_empty()).then_some(ResolveCtx {
        resolutions,
        programs: &programs_by_name,
    });

    // Phase A, wave by wave; every wave reads the summaries replayed from
    // the cache and those of the waves before it.
    let mut summaries: Summaries = HashMap::new();
    for c in files.iter().filter_map(|f| f.cached.as_ref()) {
        summaries.extend(c.summaries.iter().map(|(k, v)| (*k, Arc::clone(v))));
    }
    let mut phase_a: Vec<Option<PhaseA>> = files.iter().map(|_| None).collect();
    let (nodes, waves) = plan_phase_a(options, files, functions, &index);
    for wave in waves {
        let done = &summaries;
        let results = runtime.map(wave, |_, task| {
            let _spans: Vec<_> = task
                .files
                .iter()
                .map(|&i| obs.span_file(Phase::Taint, &files[i].name))
                .collect();
            let engines = task.files.iter().map(|&i| {
                let f = &files[i];
                let program = f.program.expect("fresh file must be parsed");
                let engine = Engine::for_file(
                    catalog,
                    &calls,
                    options,
                    &index,
                    &f.name,
                    program,
                    done,
                    None,
                    fetch_is_tainted,
                    CarriedState::default(),
                );
                (i, engine)
            });
            summarize_task(engines.collect(), &task.components, &nodes, &index)
        });
        let _merge = obs.span(Phase::SummaryMerge);
        for (i, pa) in results.into_iter().flatten() {
            summaries.extend(pa.summaries.iter().map(|(k, v)| (*k, Arc::clone(v))));
            phase_a[i] = Some(pa);
        }
    }

    // Phase B: top-level flow of every fresh file against the merged
    // summaries, resuming the literal-tracking state from its phase A.
    let states: Vec<(usize, CarriedState)> = phase_a
        .iter_mut()
        .enumerate()
        .filter_map(|(i, pa)| Some((i, std::mem::take(&mut pa.as_mut()?.state))))
        .collect();
    let results = runtime.map(states, |_, (i, state)| {
        let f = &files[i];
        let _span = obs.span_file(Phase::TopLevelExec, &f.name);
        let program = f.program.expect("fresh file must be parsed");
        let mut engine = Engine::for_file(
            catalog,
            &calls,
            options,
            &index,
            &f.name,
            program,
            &summaries,
            resolve,
            fetch_is_tainted,
            state,
        );
        engine.run_toplevel();
        (
            i,
            std::mem::take(&mut engine.candidates),
            engine.tainted_store_seen,
        )
    });
    let mut phase_b: Vec<Option<(Vec<Candidate>, bool)>> = files.iter().map(|_| None).collect();
    for (i, found, seen) in results {
        phase_b[i] = Some((found, seen));
    }

    let mut artifacts = Vec::with_capacity(files.len());
    let mut fresh = Vec::with_capacity(files.len());
    for (i, f) in files.iter().enumerate() {
        if let Some(c) = &f.cached {
            artifacts.push(c.clone());
            fresh.push(false);
        } else {
            let pa = phase_a[i].take().expect("fresh file has phase-A output");
            let (b_candidates, b_seen) = phase_b[i].take().expect("fresh file has phase-B output");
            artifacts.push(PassArtifacts {
                summaries: pa.summaries,
                a_candidates: pa.candidates,
                b_candidates,
                store_seen: pa.store_seen || b_seen,
            });
            fresh.push(true);
        }
    }
    PassOutcome { artifacts, fresh }
}

/// Phase A of one task: walks its components in order with the owning
/// file's engine, and tears every engine down into that file's output.
fn summarize_task<'a>(
    mut engines: Vec<(usize, Engine<'a>)>,
    components: &[Component],
    nodes: &[Decl<'a>],
    index: &FnIndex,
) -> Vec<(usize, PhaseA)> {
    // the task's summaries, lent to whichever engine walks next
    let mut work: Summaries = HashMap::new();
    let walk = |engines: &mut [(usize, Engine<'a>)],
                work: &mut Summaries,
                (name, owner, func): Decl<'a>| {
        let (_, engine) = engines
            .iter_mut()
            .find(|(i, _)| *i == owner)
            .expect("the task owns its functions");
        engine.summaries = std::mem::take(work);
        let summary = engine.walk_function(name, func);
        *work = std::mem::take(&mut engine.summaries);
        summary
    };
    for component in components {
        // A recursion iterates to the fixpoint. A member starts with no
        // summary, which applies as "no flows"; flows only grow from
        // there, and a walk that finds the same flows keeps the first
        // witness. Only the last round's candidates stand: they saw the
        // final summaries (a function outside any recursion is walked
        // once and needs no checkpoint).
        let checkpoints: Vec<usize> = match component.recursive {
            true => engines.iter().map(|(_, e)| e.candidates.len()).collect(),
            false => Vec::new(),
        };
        loop {
            for ((_, e), &cp) in engines.iter_mut().zip(&checkpoints) {
                e.candidates.truncate(cp);
            }
            let mut changed = false;
            for &v in &component.members {
                let name = nodes[v].0;
                let summary = walk(&mut engines, &mut work, nodes[v]);
                if !work.get(&name).is_some_and(|s| s.same_flows(&summary)) {
                    work.insert(name, Arc::new(summary));
                    changed = true;
                }
            }
            if !component.recursive || !changed {
                break;
            }
        }
    }
    engines
        .into_iter()
        .map(|(i, engine)| {
            let own = work.extract_if(|name, _| index.get(name) == Some(&i));
            (i, engine.into_phase_a(own.collect()))
        })
        .collect()
}

/// Flattens per-file pass artifacts into the pass's candidate stream in
/// canonical order: all phase-A candidates in file order, then all
/// phase-B candidates in file order — the exact interleaving of an
/// uncached [`run_pass`], which [`dedup_and_sort`] (first occurrence
/// wins) relies on.
pub fn pass_candidates(artifacts: &[PassArtifacts]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for a in artifacts {
        out.extend(a.a_candidates.iter().cloned());
    }
    for a in artifacts {
        out.extend(a.b_candidates.iter().cloned());
    }
    out
}

/// Final join: deduplicate (loop re-execution, joined branches, and the
/// second-order pass can repeat a finding at the same sink), then sort by
/// a total key so the output order never depends on task scheduling.
///
/// Public so the incremental pipeline in `wap-core` can finalize a
/// candidate stream reassembled from cached and fresh pass artifacts
/// exactly as an uncached run would.
pub fn dedup_and_sort(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
    let mut seen = HashSet::new();
    candidates.retain(|c| {
        let key = (
            c.class.clone(),
            c.sink_span,
            c.sink.clone(),
            c.sources.clone(),
            c.file.clone(),
        );
        seen.insert(key)
    });
    candidates.sort_by(|a, b| {
        (
            a.file.as_deref(),
            a.line,
            a.sink_span.start(),
            &a.class,
            &a.sink,
            &a.sources,
        )
            .cmp(&(
                b.file.as_deref(),
                b.line,
                b.sink_span.start(),
                &b.class,
                &b.sink,
                &b.sources,
            ))
    });
    candidates
}

/// Convenience wrapper for a single anonymous program.
pub fn analyze_program(catalog: &Catalog, program: &Program) -> Vec<Candidate> {
    let files = vec![SourceFile {
        name: "<input>".into(),
        program: program.clone(),
    }];
    analyze(catalog, &AnalysisOptions::default(), &files)
}

// ---- function summaries ----

/// Flow of one parameter to the function's return value.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ParamFlow {
    pub(crate) flows: bool,
    pub(crate) sanitized: BTreeSet<VulnClass>,
}

/// A sink inside a function reachable from one of its parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParamSink {
    pub(crate) param: usize,
    pub(crate) class: VulnClass,
    pub(crate) sink: String,
    pub(crate) span: Span,
    pub(crate) fix_site: Span,
    pub(crate) tainted_arg: Option<usize>,
    pub(crate) literals: Vec<String>,
    pub(crate) sanitized: BTreeSet<VulnClass>,
    pub(crate) inner_steps: Vec<TaintStep>,
}

/// Function summaries by lowercased name, each shared (not copied)
/// between a file's artifacts, the pass's merged map and the engines
/// reading it.
pub(crate) type Summaries = HashMap<Symbol, Arc<FnSummary>>;

#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FnSummary {
    pub(crate) ret_from_params: Vec<ParamFlow>,
    pub(crate) ret_direct: TaintState,
    pub(crate) param_sinks: Vec<ParamSink>,
}

impl FnSummary {
    /// Whether both summaries carry the same flows: parameter-to-return
    /// flows, the return's own sources and sanitization, and which
    /// parameter reaches which sink. Witnesses — provenance steps,
    /// carriers, literal fragments, fix sites, repeated sinks — are left
    /// out: a recursive walk lengthens them every round, while the flows
    /// are finite and only grow, so a recursion's fixpoint compares this
    /// way.
    fn same_flows(&self, other: &FnSummary) -> bool {
        let ret = |s: &FnSummary| {
            s.ret_direct
                .info()
                .map(|i| (i.sources.clone(), i.sanitized.clone()))
        };
        let sinks = |s: &FnSummary| -> BTreeSet<(usize, VulnClass, String, u32, u32)> {
            s.param_sinks
                .iter()
                .map(|p| {
                    (
                        p.param,
                        p.class.clone(),
                        p.sink.clone(),
                        p.span.start(),
                        p.span.end(),
                    )
                })
                .collect()
        };
        self.ret_from_params == other.ret_from_params
            && ret(self) == ret(other)
            && sinks(self) == sinks(other)
    }
}

type Env = flow::Env<TaintState>;

/// Literal-tracking state threaded from a file's phase-A task into its
/// phase-B task, so within-file behavior matches a straight serial walk.
#[derive(Debug, Default)]
struct CarriedState {
    var_literals: HashMap<Symbol, Vec<String>>,
    var_fix_site: HashMap<Symbol, Span>,
}

struct Engine<'a> {
    catalog: &'a Catalog,
    /// The pass's classification of callees and entry variables.
    calls: &'a CallTable,
    options: &'a AnalysisOptions,
    /// The analyzed file's parsed program.
    program: &'a Program,
    /// Canonical owner of every user function. Built once per pass and
    /// shared by all of the pass's tasks.
    functions: &'a FnIndex,
    /// Summaries the running phase-A task has derived so far; empty in
    /// phase B.
    summaries: Summaries,
    /// Finished summaries (read-only, shared across tasks): in phase A
    /// those of cached files and earlier waves, in phase B all of them.
    shared: &'a Summaries,
    candidates: Vec<Candidate>,
    current_file: String,
    /// Return-taint accumulator for the function currently being summarized.
    ret_stack: Vec<TaintState>,
    /// Literal string fragments ever assigned into each variable — a
    /// flow-insensitive over-approximation of the query text a variable
    /// holds, feeding the SQL-manipulation attributes of Table I.
    var_literals: HashMap<Symbol, Vec<String>>,
    /// Per-variable span of the expression a fix should wrap: the single
    /// tainted leaf of the assignment that tainted the variable (when the
    /// leaf is wrappable, i.e. not inside an interpolated string).
    var_fix_site: HashMap<Symbol, Span>,
    /// Set when a first pass saw tainted data stored via INSERT/UPDATE.
    tainted_store_seen: bool,
    /// Second-order pass: fetch functions return tainted stored data.
    fetch_is_tainted: bool,
    /// Value-analysis resolution facts (`--values` only). `None` in
    /// phase A and in every default-configuration run.
    resolve: Option<ResolveCtx<'a>>,
    /// Files currently being inlined (cycle guard for resolved includes);
    /// holds the *parents* of `current_file`, root first.
    include_stack: Vec<String>,
    /// Loops enclosing the walked statement (see
    /// [`wap_php::flow::MAX_LOOP_NEST`]).
    loop_nest: usize,
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn for_file(
        catalog: &'a Catalog,
        calls: &'a CallTable,
        options: &'a AnalysisOptions,
        functions: &'a FnIndex,
        name: &str,
        program: &'a Program,
        shared: &'a Summaries,
        resolve: Option<ResolveCtx<'a>>,
        fetch_is_tainted: bool,
        state: CarriedState,
    ) -> Self {
        Engine {
            catalog,
            calls,
            options,
            program,
            functions,
            summaries: HashMap::new(),
            shared,
            candidates: Vec::new(),
            current_file: name.to_string(),
            ret_stack: Vec::new(),
            var_literals: state.var_literals,
            var_fix_site: state.var_fix_site,
            tainted_store_seen: false,
            fetch_is_tainted,
            resolve,
            include_stack: Vec::new(),
            loop_nest: 0,
        }
    }

    /// Tears a phase-A engine down into what the pass aggregator needs,
    /// with `summaries`, those of the functions this file owns.
    fn into_phase_a(self, summaries: Summaries) -> PhaseA {
        PhaseA {
            summaries,
            candidates: self.candidates,
            state: CarriedState {
                var_literals: self.var_literals,
                var_fix_site: self.var_fix_site,
            },
            store_seen: self.tainted_store_seen,
        }
    }

    /// Records the literal fragments visible in an assignment, so that
    /// queries built across several statements keep their text.
    fn track_var_literals(&mut self, target: &Expr, value: &Expr, append: bool) {
        let Some(root) = target.root_var_symbol() else {
            return;
        };
        let mut fragments = collect_literals(value);
        // pull in fragments of variables referenced by the value
        let mut referenced = Vec::new();
        collect_vars_into(value, &mut referenced);
        for v in referenced {
            if let Some(fs) = self.var_literals.get(&v) {
                fragments.extend(fs.iter().cloned());
            }
        }
        let entry = self.var_literals.entry(root).or_default();
        if !append {
            entry.clear();
        }
        for f in fragments {
            if entry.len() >= MAX_LITERALS {
                break;
            }
            if !entry.contains(&f) {
                entry.push(f);
            }
        }
    }

    /// When a sink argument is a plain variable, the fix can wrap the
    /// expression that originally tainted it (sanitize at entry).
    fn var_assignment_site(&self, arg: &Expr) -> Option<Span> {
        match &arg.kind {
            ExprKind::Var(n) => self.var_fix_site.get(n).copied(),
            _ => None,
        }
    }

    /// Literal fragments associated with the carrier variables of a flow.
    fn carrier_literals(&self, carriers: impl IntoIterator<Item = Symbol>) -> Vec<String> {
        let mut out = Vec::new();
        for c in carriers {
            if let Some(fs) = self.var_literals.get(&c) {
                for f in fs {
                    if !out.contains(f) {
                        out.push(f.clone());
                    }
                }
            }
        }
        out
    }

    /// Phase B: the top-level flow of this file.
    fn run_toplevel(&mut self) {
        let mut env = Env::new();
        let stmts = &self.program.stmts;
        self.exec_block(&mut env, stmts);
    }

    // ---- summaries ----

    fn param_marker(name: Symbol, i: usize) -> String {
        format!("@param:{name}:{i}")
    }

    /// Phase A: walks the body of `func`, canonically declared as `name`
    /// by this file, from its parameters, and derives its summary. Flows
    /// from entry points inside the body are kept as this file's
    /// candidates; flows from parameters become the summary's sinks.
    fn walk_function(&mut self, name: Symbol, func: &'a Function) -> FnSummary {
        // candidates recorded from here on belong to this function's body
        let checkpoint = self.candidates.len();

        let mut env = Env::new();
        for (i, p) in func.params.iter().enumerate() {
            env.insert(
                p.name,
                TaintState::source(Self::param_marker(name, i), func.span).with_carrier(p.name),
            );
        }
        self.ret_stack.push(TaintState::Clean);
        self.exec_block(&mut env, &func.body);
        let ret = self.ret_stack.pop().expect("pushed above");

        // decompose the return taint into per-param flows + direct taint
        let mut ret_from_params = vec![ParamFlow::default(); func.params.len()];
        let mut ret_direct = TaintState::Clean;
        if let TaintState::Tainted(info) = &ret {
            let mut direct_sources: BTreeSet<Symbol> = BTreeSet::new();
            for s in &info.sources {
                if let Some(idx) = parse_param_marker(s.as_str(), name.as_str()) {
                    if idx < ret_from_params.len() {
                        ret_from_params[idx] = ParamFlow {
                            flows: true,
                            sanitized: info.sanitized.clone(),
                        };
                    }
                } else {
                    direct_sources.insert(*s);
                }
            }
            if !direct_sources.is_empty() {
                let mut d = crate::TaintInfo::clone(info);
                d.sources = direct_sources;
                ret_direct = TaintState::Tainted(std::sync::Arc::new(d));
            }
        }

        // candidates recorded during summarization that reference param
        // markers are internal flows, not real findings: split them out
        let mut param_sinks = Vec::new();
        for c in self.candidates.split_off(checkpoint) {
            let param_srcs: Vec<usize> = c
                .sources
                .iter()
                .filter_map(|s| parse_param_marker(s, name.as_str()))
                .collect();
            let real_srcs: Vec<String> = c
                .sources
                .iter()
                .filter(|s| !s.starts_with("@param:"))
                .cloned()
                .collect();
            if !real_srcs.is_empty() {
                let mut c2 = c.clone();
                c2.sources = real_srcs;
                self.candidates.push(c2);
            }
            for p in param_srcs {
                param_sinks.push(ParamSink {
                    param: p,
                    class: c.class.clone(),
                    sink: c.sink.clone(),
                    span: c.sink_span,
                    fix_site: c.fix_site,
                    tainted_arg: c.tainted_arg,
                    literals: c.literal_fragments.clone(),
                    sanitized: BTreeSet::new(),
                    inner_steps: c.path.clone(),
                });
            }
        }

        FnSummary {
            ret_from_params,
            ret_direct,
            param_sinks,
        }
    }

    /// The summary of user function `name`, shared with the map it came
    /// from. Callees are summarized before their callers, so this is a
    /// lookup; only a member of the recursion being walked may not have
    /// one yet, which applies as "no flows".
    fn summary(&self, name: Symbol) -> Arc<FnSummary> {
        let lname = name.lower();
        self.summaries
            .get(&lname)
            .or_else(|| self.shared.get(&lname))
            .cloned()
            .unwrap_or_default()
    }
}

impl<'a> AbstractWalk<'a> for Engine<'a> {
    type Value = TaintState;

    fn loop_nest(&mut self) -> &mut usize {
        &mut self.loop_nest
    }

    fn bind_foreach(
        &mut self,
        env: &mut Env,
        array: TaintState,
        key: Option<&'a Expr>,
        value: &'a Expr,
        span: Span,
    ) {
        let elem = array.with_step("foreach element", span);
        if let Some(k) = key {
            self.assign_to(env, k, elem.clone());
        }
        self.assign_to(env, value, elem);
    }

    fn exec_include(&mut self, env: &mut Env, path: &'a Expr, span: Span) {
        let t = self.eval(env, path);
        self.check_include_sink(path, &t, span);
        self.exec_resolved_include(env, path);
    }

    fn echo(&mut self, item: &'a Expr, value: &TaintState, span: Span) {
        self.check_echo_sink("echo", item, value, span);
    }

    fn returned(&mut self, value: TaintState) {
        if let Some(acc) = self.ret_stack.last_mut() {
            *acc = acc.join(&value);
        }
    }

    fn eval(&mut self, env: &mut Env, expr: &'a Expr) -> TaintState {
        match &expr.kind {
            ExprKind::Var(n) => {
                if self.calls.is_entry_var(*n) {
                    TaintState::source(format!("${n}"), expr.span)
                } else if let Some(t) = env.get(n) {
                    t.clone()
                } else if let Some(t) = env.get(&extract_all_key()) {
                    // unknown variable after extract(): attacker-supplied
                    t.clone().with_carrier(*n)
                } else {
                    TaintState::Clean
                }
            }
            ExprKind::Lit(_) | ExprKind::Name(_) | ExprKind::ClassConst { .. } => TaintState::Clean,
            ExprKind::Interp(parts) => {
                let mut t = TaintState::Clean;
                let mut literals = Vec::new();
                for p in parts {
                    match &p.kind {
                        ExprKind::Lit(Lit::Str(s)) => literals.push(s.clone()),
                        _ => {
                            let pt = self.eval(env, p);
                            t = t.join(&pt);
                        }
                    }
                }
                let t = t.with_step("string interpolation", expr.span);
                attach_literals(t, literals)
            }
            ExprKind::ArrayDim { base, index } => {
                // superglobal element: the canonical entry point
                if let ExprKind::Var(n) = &base.kind {
                    if self.calls.is_entry_superglobal(*n) {
                        let key = index
                            .as_deref()
                            .and_then(|i| i.as_str_lit().map(str::to_string))
                            .unwrap_or_else(|| "?".to_string());
                        if let Some(i) = index {
                            self.eval(env, i);
                        }
                        return TaintState::source(format!("${n}['{key}']"), expr.span);
                    }
                }
                let bt = self.eval(env, base);
                if let Some(i) = index {
                    self.eval(env, i);
                }
                bt
            }
            ExprKind::Prop { base, name } => {
                if let Some(root) = base.root_var() {
                    let key = format!("{root}->{name}");
                    if let Some(t) = env.get(&Symbol::intern(&key)) {
                        return t.clone();
                    }
                }
                self.eval(env, base)
            }
            ExprKind::StaticProp { class, name } => env
                .get(&Symbol::intern(&format!("{class}::${name}")))
                .cloned()
                .unwrap_or(TaintState::Clean),
            ExprKind::Call { callee, args } => self.eval_call(env, callee, args, expr.span),
            ExprKind::MethodCall {
                target,
                method,
                args,
            } => self.eval_method_call(env, target, *method, args, expr.span),
            ExprKind::StaticCall {
                class,
                method,
                args,
            } => {
                let arg_taints: Vec<TaintState> = args.iter().map(|a| self.eval(env, a)).collect();
                let full = format!("{class}::{method}");
                self.apply_function_semantics(
                    Symbol::intern(&full),
                    *method,
                    args,
                    &arg_taints,
                    expr.span,
                    env,
                )
            }
            ExprKind::New { args, .. } => {
                let mut t = TaintState::Clean;
                for a in args {
                    t = t.join(&self.eval(env, a));
                }
                t.with_step("constructor argument", expr.span)
            }
            ExprKind::Assign {
                target, op, value, ..
            } => {
                let vt = self.eval(env, value);
                self.track_var_literals(target, value, *op == AssignOp::Concat);
                // remember where a fix could sanitize this variable's taint
                if let Some(root) = target.root_var_symbol() {
                    let site = vt.info().and_then(|info| {
                        single_tainted_leaf(value, info).or_else(|| wrappable_value_span(value))
                    });
                    match site {
                        Some(s) if *op == AssignOp::Assign => {
                            self.var_fix_site.insert(root, s);
                        }
                        _ => {
                            self.var_fix_site.remove(&root);
                        }
                    }
                }
                let new = match op {
                    AssignOp::Assign => vt,
                    AssignOp::Concat => {
                        let old = self.read_lvalue(env, target);
                        let joined = old
                            .join(&vt)
                            .with_step(format!("concat into {}", lvalue_name(target)), expr.span);
                        merge_literals(joined, &old, &vt)
                    }
                    AssignOp::Coalesce => {
                        let old = self.read_lvalue(env, target);
                        old.join(&vt)
                    }
                    // arithmetic compound assignments produce numbers
                    _ => TaintState::Clean,
                };
                self.assign_to(env, target, new.clone());
                new
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.eval(env, lhs);
                let rt = self.eval(env, rhs);
                match op {
                    BinOp::Concat => {
                        let joined = lt.join(&rt).with_step("string concatenation", expr.span);
                        let joined = merge_literals(joined, &lt, &rt);
                        let joined = absorb_literal(joined, lhs);
                        absorb_literal(joined, rhs)
                    }
                    BinOp::Coalesce => lt.join(&rt),
                    // comparisons, arithmetic, logic, and bit ops yield
                    // numbers/booleans that cannot carry a payload
                    _ => TaintState::Clean,
                }
            }
            ExprKind::Unary { expr: inner, .. } => {
                self.eval(env, inner);
                TaintState::Clean
            }
            ExprKind::IncDec { target, .. } => {
                self.read_lvalue(env, target);
                TaintState::Clean
            }
            ExprKind::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let ct = self.eval(env, cond);
                let tt = match then {
                    Some(t) => self.eval(env, t),
                    None => ct, // `?:` returns the condition value
                };
                let ot = self.eval(env, otherwise);
                tt.join(&ot)
            }
            ExprKind::Cast { ty, expr: inner } => {
                let t = self.eval(env, inner);
                if ty.is_sanitizing() {
                    TaintState::Clean
                } else {
                    t.with_step(format!("({}) cast", ty.keyword()), expr.span)
                }
            }
            ExprKind::Isset(es) => {
                for e in es {
                    self.eval(env, e);
                }
                TaintState::Clean
            }
            ExprKind::Empty(e) | ExprKind::InstanceOf { expr: e, .. } => {
                self.eval(env, e);
                TaintState::Clean
            }
            ExprKind::Array(items) => {
                let mut t = TaintState::Clean;
                for it in items {
                    if let Some(k) = &it.key {
                        self.eval(env, k);
                    }
                    t = t.join(&self.eval(env, &it.value));
                }
                t
            }
            ExprKind::List(_) => TaintState::Clean,
            ExprKind::Closure(c) => self.eval_closure(env, c),
            ExprKind::ShellExec(parts) => {
                let mut t = TaintState::Clean;
                let mut literals = Vec::new();
                for p in parts {
                    match &p.kind {
                        ExprKind::Lit(Lit::Str(s)) => literals.push(s.clone()),
                        _ => t = t.join(&self.eval(env, p)),
                    }
                }
                // the backtick operator is an OS command injection sink
                let class = VulnClass::Osci;
                if self.catalog.has_class(&class) && t.is_tainted_for(&class) {
                    let info = t.info().expect("tainted");
                    let mut path = info.steps.clone();
                    path.push(TaintStep::new("sensitive sink ` ` (shell exec)", expr.span));
                    self.candidates.push(Candidate {
                        class,
                        sink: "`backtick`".to_string(),
                        sink_span: expr.span,
                        line: expr.span.line(),
                        sources: info
                            .sources
                            .iter()
                            .map(|s| s.as_str().to_string())
                            .collect(),
                        path,
                        carriers: info
                            .carriers
                            .iter()
                            .map(|c| c.as_str().to_string())
                            .collect(),
                        tainted_arg: None,
                        // report-only: the corrector cannot wrap an operator
                        fix_site: Span::synthetic(),
                        literal_fragments: literals,
                        file: Some(self.current_file.clone()),
                    });
                }
                // command output is fresh data, not the attacker's string
                TaintState::Clean
            }
            ExprKind::ErrorSuppress(e) => self.eval(env, e),
            ExprKind::Exit(arg) => {
                if let Some(a) = arg {
                    let t = self.eval(env, a);
                    self.check_echo_sink("exit", a, &t, expr.span);
                }
                TaintState::Clean
            }
            ExprKind::Print(e) => {
                let t = self.eval(env, e);
                self.check_echo_sink("print", e, &t, expr.span);
                TaintState::Clean
            }
            ExprKind::Clone(e) => self.eval(env, e),
            ExprKind::IncludeExpr { path, .. } => {
                self.exec_include(env, path, expr.span);
                TaintState::Clean
            }
        }
    }
}

impl<'a> Engine<'a> {
    fn read_lvalue(&mut self, env: &mut Env, target: &'a Expr) -> TaintState {
        match &target.kind {
            ExprKind::Var(n) => env.get(n).cloned().unwrap_or(TaintState::Clean),
            ExprKind::ArrayDim { base, .. } => self.read_lvalue(env, base),
            ExprKind::Prop { base, name } => {
                if let Some(root) = base.root_var() {
                    env.get(&Symbol::intern(&format!("{root}->{name}")))
                        .cloned()
                        .unwrap_or(TaintState::Clean)
                } else {
                    TaintState::Clean
                }
            }
            ExprKind::StaticProp { class, name } => env
                .get(&Symbol::intern(&format!("{class}::${name}")))
                .cloned()
                .unwrap_or(TaintState::Clean),
            _ => TaintState::Clean,
        }
    }

    fn assign_to(&mut self, env: &mut Env, target: &'a Expr, value: TaintState) {
        match &target.kind {
            ExprKind::Var(n) => {
                let value = value.with_carrier(*n);
                env.insert(*n, value);
            }
            ExprKind::ArrayDim { base, .. } => {
                // element-insensitive: a tainted element taints the array
                if let Some(root) = base.root_var_symbol() {
                    let old = env.get(&root).cloned().unwrap_or(TaintState::Clean);
                    env.insert(root, old.join(&value).with_carrier(root));
                }
            }
            ExprKind::Prop { base, name } => {
                if let Some(root) = base.root_var() {
                    let key = Symbol::intern(&format!("{root}->{name}"));
                    let value = value.with_carrier(key);
                    env.insert(key, value);
                }
            }
            ExprKind::StaticProp { class, name } => {
                env.insert(Symbol::intern(&format!("{class}::${name}")), value);
            }
            ExprKind::List(items) => {
                for it in items.iter().flatten() {
                    self.assign_to(env, it, value.clone());
                }
            }
            _ => {}
        }
    }

    // ---- calls ----

    fn eval_call(
        &mut self,
        env: &mut Env,
        callee: &'a Expr,
        args: &'a [Expr],
        span: Span,
    ) -> TaintState {
        let arg_taints: Vec<TaintState> = args.iter().map(|a| self.eval(env, a)).collect();
        let name = match &callee.kind {
            ExprKind::Name(n) => *n,
            _ => {
                // dynamic call `$f(...)`: dispatch through the value
                // analysis' resolved targets when it pinned the callee
                // down, else propagate args conservatively
                self.eval(env, callee);
                if let Some(t) = self.dispatch_resolved(span, args, &arg_taints, env) {
                    return t;
                }
                return join_all(&arg_taints).with_step("dynamic call", span);
            }
        };
        if is_call_user_func(name.as_str()) && !args.is_empty() {
            // call_user_func($cb, ...$rest): when the value analysis
            // resolved $cb, dispatch $rest through the targets' semantics
            if let Some(t) = self.dispatch_resolved(span, &args[1..], &arg_taints[1..], env) {
                return t;
            }
        }
        self.apply_function_semantics(name, name, args, &arg_taints, span, env)
    }

    /// Resolved targets the value analysis recorded for the dynamic call
    /// at `span` in the current file, if any.
    fn resolved_call_targets(&self, span: Span) -> Option<Vec<String>> {
        let ctx = self.resolve?;
        ctx.resolutions
            .get(self.current_file.as_str())?
            .calls
            .get(&span.start())
            .cloned()
    }

    /// Dispatches a value-resolved dynamic call: every target's full
    /// function semantics (sinks, sanitizers, summaries) joined in the
    /// resolution's sorted order. `None` when the site is unresolved.
    fn dispatch_resolved(
        &mut self,
        span: Span,
        args: &'a [Expr],
        arg_taints: &[TaintState],
        env: &mut Env,
    ) -> Option<TaintState> {
        let targets = self.resolved_call_targets(span)?;
        let mut out = TaintState::Clean;
        for t in &targets {
            let sym = Symbol::intern(t);
            out = out.join(&self.apply_function_semantics(sym, sym, args, arg_taints, span, env));
        }
        Some(out.with_step("resolved dynamic call", span))
    }

    /// Phase-B, top-level only: when the value analysis resolved this
    /// include's path to scan-set files, execute their top-level
    /// statements inline against the caller's environment, attributing
    /// candidates to the included file. Cycles are cut by the include
    /// stack; depth is bounded by [`MAX_INCLUDE_DEPTH`].
    fn exec_resolved_include(&mut self, env: &mut Env, path: &'a Expr) {
        let Some(ctx) = self.resolve else { return };
        let targets = match ctx
            .resolutions
            .get(self.current_file.as_str())
            .and_then(|r| r.includes.get(&path.span.start()))
        {
            Some(t) => t.clone(),
            None => return,
        };
        if self.include_stack.len() >= MAX_INCLUDE_DEPTH {
            return;
        }
        for target in targets {
            if target == self.current_file || self.include_stack.contains(&target) {
                continue;
            }
            let Some(program) = ctx.programs.get(target.as_str()).copied() else {
                continue;
            };
            let parent = std::mem::replace(&mut self.current_file, target);
            self.include_stack.push(parent.clone());
            self.exec_block(env, &program.stmts);
            self.include_stack.pop();
            self.current_file = parent;
        }
    }

    /// Shared semantics for plain and static calls.
    fn apply_function_semantics(
        &mut self,
        lookup_name: Symbol,
        display_name: Symbol,
        args: &'a [Expr],
        arg_taints: &[TaintState],
        span: Span,
        env: &mut Env,
    ) -> TaintState {
        // 0a. extract($_POST) imports attacker-controlled variables: every
        // unknown variable read afterwards must be considered tainted
        if display_name.as_str().eq_ignore_ascii_case("extract") {
            if let Some(t) = arg_taints.first() {
                if t.is_tainted() {
                    env.insert(
                        extract_all_key(),
                        t.with_step("extract() imported request data", span),
                    );
                }
            }
            return TaintState::Clean;
        }
        let call = self.calls.call(display_name);
        // 0b. second-order pass: database fetch results are stored data
        if self.fetch_is_tainted && call.fetch {
            return TaintState::source(STORED_DATA_SOURCE, span);
        }

        // 0c. decoders revoke sanitization: stripslashes() undoes
        // addslashes(), urldecode() re-introduces encoded payloads
        if call.desanitizer {
            let t = join_all(arg_taints);
            if let TaintState::Tainted(mut info) = t {
                std::sync::Arc::make_mut(&mut info).sanitized.clear();
                return TaintState::Tainted(info)
                    .with_step(format!("de-sanitized by {display_name}()"), span);
            }
            return TaintState::Clean;
        }

        // 1. sensitive sink?
        self.check_function_sink(call, display_name.as_str(), args, arg_taints, span);

        // 2. sanitizer?
        if !call.sanitized.is_empty() {
            let t = join_all(arg_taints);
            return t.sanitize(&call.sanitized, display_name.as_str(), span);
        }

        // 3. entry-point function (weapon-provided)?
        if call.entry_function {
            return TaintState::source(format!("{display_name}()"), span);
        }

        // 4. user-defined function?
        if self.options.interprocedural && self.functions.contains_key(&lookup_name.lower()) {
            return self.apply_summary(lookup_name, display_name, arg_taints, span);
        }

        // 5. known clean-returning builtin?
        if call.returns_clean {
            return TaintState::Clean;
        }

        // 6. unknown function: conservatively propagate argument taint
        join_all(arg_taints).with_step(format!("through {display_name}()"), span)
    }

    fn apply_summary(
        &mut self,
        lookup_name: Symbol,
        display_name: Symbol,
        arg_taints: &[TaintState],
        span: Span,
    ) -> TaintState {
        let summary = self.summary(lookup_name);

        // report internal sinks reached by tainted call arguments
        for ps in &summary.param_sinks {
            if let Some(t) = arg_taints.get(ps.param) {
                if t.is_tainted_for(&ps.class) && !ps.sanitized.contains(&ps.class) {
                    if let Some(info) = t.info() {
                        let mut path = info.steps.clone();
                        path.push(TaintStep::new(
                            format!("into {display_name}() parameter {}", ps.param),
                            span,
                        ));
                        path.extend(ps.inner_steps.iter().cloned());
                        self.candidates.push(Candidate {
                            class: ps.class.clone(),
                            sink: ps.sink.clone(),
                            sink_span: ps.span,
                            line: ps.span.line(),
                            sources: info
                                .sources
                                .iter()
                                .map(|s| s.as_str().to_string())
                                .collect(),
                            path,
                            carriers: info
                                .carriers
                                .iter()
                                .map(|c| c.as_str().to_string())
                                .collect(),
                            tainted_arg: ps.tainted_arg,
                            fix_site: ps.fix_site,
                            literal_fragments: ps.literals.clone(),
                            file: Some(self.current_file.clone()),
                        });
                    }
                }
            }
        }

        // return taint
        let mut out = summary.ret_direct.clone();
        for (i, flow) in summary.ret_from_params.iter().enumerate() {
            if flow.flows {
                if let Some(TaintState::Tainted(info)) = arg_taints.get(i) {
                    let mut info = std::sync::Arc::clone(info);
                    let m = std::sync::Arc::make_mut(&mut info);
                    for c in &flow.sanitized {
                        m.sanitized.insert(c.clone());
                    }
                    out = out.join(&TaintState::Tainted(info));
                }
            }
        }
        out.with_step(format!("through {display_name}()"), span)
    }

    fn eval_method_call(
        &mut self,
        env: &mut Env,
        target: &'a Expr,
        method: Symbol,
        args: &'a [Expr],
        span: Span,
    ) -> TaintState {
        let target_taint = self.eval(env, target);
        let arg_taints: Vec<TaintState> = args.iter().map(|a| self.eval(env, a)).collect();
        let receiver = target.root_var();

        let call = self.calls.call(method);
        // second-order pass: $result->fetch_assoc() returns stored data
        if self.fetch_is_tainted && call.fetch {
            return TaintState::source(STORED_DATA_SOURCE, span);
        }

        // 1. method sink?
        self.check_method_sink(call, method, receiver, args, &arg_taints, span);

        // 2. sanitizer method (e.g. $wpdb->prepare, $db->escape)?
        if !call.sanitized.is_empty() {
            return join_all(&arg_taints).sanitize(&call.sanitized, method.as_str(), span);
        }

        // 3. user-defined method (by name, class-insensitive)?
        if self.options.interprocedural && self.functions.contains_key(&method.lower()) {
            return self.apply_summary(method, method, &arg_taints, span);
        }

        // 4. unknown method: propagate receiver + args
        target_taint
            .join(&join_all(&arg_taints))
            .with_step(format!("through ->{method}()"), span)
    }

    // ---- sink checks ----

    fn check_function_sink(
        &mut self,
        call: &CallInfo,
        name: &str,
        args: &'a [Expr],
        arg_taints: &[TaintState],
        span: Span,
    ) {
        for (class, policy) in &call.sinks {
            self.record_if_tainted(class, name, args, arg_taints, policy, span);
        }
    }

    fn check_method_sink(
        &mut self,
        call: &CallInfo,
        method: Symbol,
        receiver: Option<&str>,
        args: &'a [Expr],
        arg_taints: &[TaintState],
        span: Span,
    ) {
        // the sink's display name is only spelled out for a call that
        // reaches one
        let mut display = None;
        for sink in call.method_sinks.iter().filter(|s| s.accepts(receiver)) {
            let display = display.get_or_insert_with(|| match receiver {
                Some(r) => format!("${r}->{method}"),
                None => format!("->{method}"),
            });
            self.record_if_tainted(&sink.class, display, args, arg_taints, &sink.args, span);
        }
    }

    fn record_if_tainted(
        &mut self,
        class: &VulnClass,
        sink: &str,
        args: &'a [Expr],
        arg_taints: &[TaintState],
        policy: &SinkArgs,
        span: Span,
    ) {
        let mut joined = TaintState::Clean;
        let mut first_arg = None;
        let mut fix_site = span;
        let mut literals = Vec::new();
        for (i, t) in arg_taints.iter().enumerate() {
            if policy.is_sensitive(i) && t.is_tainted_for(class) {
                if first_arg.is_none() {
                    first_arg = Some(i);
                    fix_site = t
                        .info()
                        .and_then(|info| single_tainted_leaf(&args[i], info))
                        .or_else(|| self.var_assignment_site(&args[i]))
                        .unwrap_or(args[i].span);
                }
                joined = joined.join(t);
                if let Some(info) = t.info() {
                    for l in &info.literals {
                        if !literals.contains(l) {
                            literals.push(l.clone());
                        }
                    }
                }
                for l in collect_literals(&args[i]) {
                    if !literals.contains(&l) {
                        literals.push(l);
                    }
                }
            }
        }
        if let TaintState::Tainted(info) = joined {
            for l in self.carrier_literals(info.carriers.iter().cloned()) {
                if !literals.contains(&l) {
                    literals.push(l);
                }
            }
            literals.dedup();
            // remember stores of XSS-capable data for the second-order pass
            if *class == VulnClass::Sqli
                && !info.sanitized.contains(&VulnClass::XssStored)
                && literals.iter().any(|l| {
                    let u = l.to_ascii_uppercase();
                    u.contains("INSERT") || u.contains("UPDATE") || u.contains("REPLACE")
                })
            {
                self.tainted_store_seen = true;
            }
            let mut path = info.steps.clone();
            path.push(TaintStep::new(format!("sensitive sink {sink}"), span));
            self.candidates.push(Candidate {
                class: class.clone(),
                sink: sink.to_string(),
                sink_span: span,
                line: span.line(),
                sources: info
                    .sources
                    .iter()
                    .map(|s| s.as_str().to_string())
                    .collect(),
                path,
                carriers: info
                    .carriers
                    .iter()
                    .map(|c| c.as_str().to_string())
                    .collect(),
                tainted_arg: first_arg,
                fix_site,
                literal_fragments: literals,
                file: Some(self.current_file.clone()),
            });
        }
    }

    fn check_echo_sink(&mut self, sink: &str, arg: &'a Expr, taint: &TaintState, span: Span) {
        if !self.calls.echo_sink {
            return;
        }
        let stored = taint
            .info()
            .map(|i| i.sources.contains(&stored_data_source()))
            .unwrap_or(false);
        let class = if stored {
            VulnClass::XssStored
        } else {
            VulnClass::XssReflected
        };
        if taint.is_tainted_for(&class) {
            let info = taint.info().expect("tainted");
            let mut literals = info.literals.clone();
            for l in collect_literals(arg) {
                if !literals.contains(&l) {
                    literals.push(l);
                }
            }
            for l in self.carrier_literals(info.carriers.iter().cloned()) {
                if !literals.contains(&l) {
                    literals.push(l);
                }
            }
            let mut path = info.steps.clone();
            path.push(TaintStep::new(format!("sensitive sink {sink}"), span));
            let fix_site = single_tainted_leaf(arg, info)
                .or_else(|| self.var_assignment_site(arg))
                .unwrap_or(arg.span);
            self.candidates.push(Candidate {
                class,
                sink: sink.to_string(),
                sink_span: span,
                line: span.line(),
                sources: info
                    .sources
                    .iter()
                    .map(|s| s.as_str().to_string())
                    .collect(),
                path,
                carriers: info
                    .carriers
                    .iter()
                    .map(|c| c.as_str().to_string())
                    .collect(),
                tainted_arg: None,
                fix_site,
                literal_fragments: literals,
                file: Some(self.current_file.clone()),
            });
        }
    }

    fn check_include_sink(&mut self, path_expr: &'a Expr, taint: &TaintState, span: Span) {
        if !self.calls.include_sink {
            return;
        }
        let literals = collect_literals(path_expr);
        // classification: a fully attacker-controlled path (or one with a
        // URL-ish literal) is remote file inclusion; a path anchored by a
        // local literal prefix is local file inclusion
        let class = if literals.is_empty() || literals.iter().any(|l| l.contains("://")) {
            VulnClass::Rfi
        } else {
            VulnClass::Lfi
        };
        if taint.is_tainted_for(&class) {
            let info = taint.info().expect("tainted");
            let mut path = info.steps.clone();
            path.push(TaintStep::new("sensitive sink include", span));
            self.candidates.push(Candidate {
                class,
                sink: "include".to_string(),
                sink_span: span,
                line: span.line(),
                sources: info
                    .sources
                    .iter()
                    .map(|s| s.as_str().to_string())
                    .collect(),
                path,
                carriers: info
                    .carriers
                    .iter()
                    .map(|c| c.as_str().to_string())
                    .collect(),
                tainted_arg: None,
                fix_site: path_expr.span,
                literal_fragments: literals,
                file: Some(self.current_file.clone()),
            });
        }
    }
}

/// When a sink argument is a concatenation with exactly one tainted leaf,
/// the corrector can wrap just that leaf instead of the whole argument —
/// a semantically tighter fix. Interpolated strings cannot be wrapped
/// (a call inside `"..."` would be literal text), so they return `None`.
fn single_tainted_leaf(expr: &Expr, info: &crate::state::TaintInfo) -> Option<Span> {
    fn leaves(expr: &Expr, info: &crate::state::TaintInfo, out: &mut Vec<Span>) {
        match &expr.kind {
            ExprKind::Binary {
                op: BinOp::Concat,
                lhs,
                rhs,
            } => {
                leaves(lhs, info, out);
                leaves(rhs, info, out);
            }
            ExprKind::Var(_) | ExprKind::ArrayDim { .. } | ExprKind::Prop { .. } => {
                let tainted = expr
                    .root_var_symbol()
                    .map(|r| {
                        info.carriers.contains(&r)
                            || info.sources.iter().any(|s| {
                                s.as_str()
                                    .strip_prefix('$')
                                    .is_some_and(|rest| rest.starts_with(r.as_str()))
                            })
                    })
                    .unwrap_or(false);
                if tainted {
                    out.push(expr.span);
                }
            }
            _ => {}
        }
    }
    // only meaningful when the argument is a concatenation tree
    if !matches!(
        expr.kind,
        ExprKind::Binary {
            op: BinOp::Concat,
            ..
        }
    ) {
        return None;
    }
    let mut out = Vec::new();
    leaves(expr, info, &mut out);
    if out.len() == 1 {
        Some(out[0])
    } else {
        None
    }
}

/// A value expression the corrector can wrap directly: a variable,
/// array/property fetch, or call — anything that is not an interpolated
/// string or literal.
fn wrappable_value_span(value: &Expr) -> Option<Span> {
    match &value.kind {
        ExprKind::Var(_)
        | ExprKind::ArrayDim { .. }
        | ExprKind::Prop { .. }
        | ExprKind::Call { .. }
        | ExprKind::MethodCall { .. } => Some(value.span),
        _ => None,
    }
}

/// Environment marker set by `extract()` on tainted input.
const EXTRACT_ALL: &str = "@extract_all";

/// The interned environment key for [`EXTRACT_ALL`].
fn extract_all_key() -> Symbol {
    Symbol::intern(EXTRACT_ALL)
}

/// Source label for second-order (database-stored) data.
const STORED_DATA_SOURCE: &str = "stored data (second-order)";

/// The interned source symbol for [`STORED_DATA_SOURCE`].
fn stored_data_source() -> Symbol {
    Symbol::intern(STORED_DATA_SOURCE)
}

/// `call_user_func`-style indirection whose first argument names the
/// real callee (the value analysis resolves it like a variable call).
fn is_call_user_func(name: &str) -> bool {
    name.eq_ignore_ascii_case("call_user_func") || name.eq_ignore_ascii_case("call_user_func_array")
}

/// Display name for an assignment target, e.g. `$q` or `$row['k']`.
fn lvalue_name(target: &Expr) -> String {
    match target.root_var() {
        Some(v) => format!("${v}"),
        None => "<expr>".to_string(),
    }
}

fn parse_param_marker(source: &str, fname: &str) -> Option<usize> {
    let rest = source.strip_prefix("@param:")?;
    let (name, idx) = rest.rsplit_once(':')?;
    if name == fname {
        idx.parse().ok()
    } else {
        None
    }
}

fn join_all(taints: &[TaintState]) -> TaintState {
    taints.iter().fold(TaintState::Clean, |acc, t| acc.join(t))
}

/// String literal fragments syntactically present in an expression
/// (interpolation parts, concatenation operands, direct literals).
pub fn collect_literals(expr: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    collect_literals_into(expr, &mut out);
    out
}

/// Collects the names of plain variables referenced anywhere in `expr`.
fn collect_vars_into(expr: &Expr, out: &mut Vec<Symbol>) {
    use wap_php::visitor::{walk_expr, Visitor};
    struct V<'v>(&'v mut Vec<Symbol>);
    impl Visitor for V<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Var(n) = &e.kind {
                if !self.0.contains(n) {
                    self.0.push(*n);
                }
            }
            walk_expr(self, e);
        }
    }
    V(out).visit_expr(expr);
}

fn collect_literals_into(expr: &Expr, out: &mut Vec<String>) {
    match &expr.kind {
        ExprKind::Lit(Lit::Str(s)) => out.push(s.clone()),
        ExprKind::Interp(parts) => {
            for p in parts {
                collect_literals_into(p, out);
            }
        }
        ExprKind::Binary {
            op: BinOp::Concat,
            lhs,
            rhs,
        } => {
            collect_literals_into(lhs, out);
            collect_literals_into(rhs, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_literals_into(a, out);
            }
        }
        _ => {}
    }
}

const MAX_LITERALS: usize = 16;

fn attach_literals(t: TaintState, literals: Vec<String>) -> TaintState {
    match t {
        TaintState::Clean => TaintState::Clean,
        TaintState::Tainted(mut info) => {
            let m = std::sync::Arc::make_mut(&mut info);
            for l in literals {
                if m.literals.len() >= MAX_LITERALS {
                    break;
                }
                m.literals.push(l);
            }
            TaintState::Tainted(info)
        }
    }
}

fn merge_literals(t: TaintState, a: &TaintState, b: &TaintState) -> TaintState {
    match t {
        TaintState::Clean => TaintState::Clean,
        TaintState::Tainted(mut info) => {
            let m = std::sync::Arc::make_mut(&mut info);
            for side in [a, b] {
                if let Some(i) = side.info() {
                    for l in &i.literals {
                        if m.literals.len() < MAX_LITERALS && !m.literals.contains(l) {
                            m.literals.push(l.clone());
                        }
                    }
                }
            }
            TaintState::Tainted(info)
        }
    }
}

fn absorb_literal(t: TaintState, e: &Expr) -> TaintState {
    if let ExprKind::Lit(Lit::Str(s)) = &e.kind {
        attach_literals(t, vec![s.clone()])
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_catalog::WeaponConfig;
    use wap_php::parse;

    fn run(src: &str) -> Vec<Candidate> {
        run_with(&Catalog::wape(), src)
    }

    fn run_with(catalog: &Catalog, src: &str) -> Vec<Candidate> {
        let program = parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
        analyze_program(catalog, &program)
    }

    fn classes(found: &[Candidate]) -> Vec<VulnClass> {
        found.iter().map(|c| c.class.clone()).collect()
    }

    // ---- SQLI ----

    #[test]
    fn sqli_direct_interpolation() {
        let found = run(r#"<?php mysql_query("SELECT * FROM u WHERE id = $_GET[id]");"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
        assert_eq!(found[0].sources, vec!["$_GET['id']".to_string()]);
    }

    #[test]
    fn sqli_through_variable_and_concat() {
        let found = run(r#"<?php
            $id = $_POST['id'];
            $q = "SELECT * FROM users WHERE id = '" . $id . "'";
            mysql_query($q);"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
        assert!(found[0].carriers.contains(&"q".to_string()));
        assert!(found[0].carriers.contains(&"id".to_string()));
        assert!(found[0].literal_text().contains("SELECT"));
    }

    #[test]
    fn sqli_through_dot_assign_chain() {
        let found = run(r#"<?php
            $q = "SELECT name ";
            $q .= "FROM users ";
            $q .= "WHERE id = " . $_GET['id'];
            mysqli_query($conn, $q);"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
        assert!(found[0].literal_text().contains("FROM users"));
    }

    #[test]
    fn sqli_sanitized_is_silent() {
        let found = run(r#"<?php
            $id = mysql_real_escape_string($_GET['id']);
            mysql_query("SELECT * FROM u WHERE id = '$id'");"#);
        assert!(
            found.is_empty(),
            "sanitized flow must not be reported: {found:?}"
        );
    }

    #[test]
    fn sqli_sanitizer_is_class_specific() {
        // htmlentities does not stop SQLI
        let found = run(r#"<?php
            $id = htmlentities($_GET['id']);
            mysql_query("SELECT * FROM u WHERE id = '$id'");"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    #[test]
    fn sqli_int_cast_sanitizes() {
        let found = run(r#"<?php
            $id = (int)$_GET['id'];
            mysql_query("SELECT * FROM u WHERE id = $id");"#);
        assert!(found.is_empty());
    }

    #[test]
    fn sqli_intval_sanitizes_return_value() {
        let found = run(r#"<?php
            $id = intval($_GET['id']);
            mysql_query("SELECT * FROM u WHERE id = $id");"#);
        assert!(found.is_empty());
    }

    #[test]
    fn sqli_validation_does_not_untaint() {
        // the canonical false-positive shape: guarded but unsanitized
        let found = run(r#"<?php
            $id = $_GET['id'];
            if (is_numeric($id)) {
                mysql_query("SELECT * FROM u WHERE id = $id");
            }"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    #[test]
    fn sqli_method_sink() {
        let found = run(r#"<?php $db->query("DELETE FROM t WHERE k = $_GET[k]");"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
        assert!(found[0].sink.contains("query"));
    }

    #[test]
    fn sqli_heredoc_flow() {
        let found = run("<?php\n$w = $_GET['w'];\n$q = <<<SQL\nSELECT * FROM t WHERE c = '$w'\nSQL;\nmysql_query($q);\n");
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    // ---- XSS ----

    #[test]
    fn xss_reflected_echo() {
        let found = run(r#"<?php echo "Hello " . $_GET['name'];"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
        assert_eq!(found[0].sink, "echo");
    }

    #[test]
    fn xss_short_echo_tag() {
        let found = run("<p><?= $_GET['q'] ?></p>");
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn xss_print_and_printf() {
        let found = run(r#"<?php print $_GET['a']; printf("%s", $_COOKIE['b']);"#);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|c| c.class == VulnClass::XssReflected));
    }

    #[test]
    fn xss_sanitized_with_htmlspecialchars() {
        let found = run(r#"<?php echo htmlspecialchars($_GET['name']);"#);
        assert!(found.is_empty());
    }

    #[test]
    fn xss_stored_via_fwrite() {
        let found = run(r#"<?php
            $fh = fopen('comments.txt', 'a');
            fwrite($fh, $_POST['comment']);"#);
        assert!(classes(&found).contains(&VulnClass::XssStored));
    }

    #[test]
    fn xss_ternary_isset_pattern() {
        let found = run(r#"<?php $n = isset($_GET['n']) ? $_GET['n'] : 'anon'; echo $n;"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    // ---- file classes ----

    #[test]
    fn rfi_fully_controlled_include() {
        let found = run(r#"<?php include $_GET['page'];"#);
        assert_eq!(classes(&found), vec![VulnClass::Rfi]);
    }

    #[test]
    fn lfi_prefixed_include() {
        let found = run(r#"<?php include 'pages/' . $_GET['page'] . '.php';"#);
        assert_eq!(classes(&found), vec![VulnClass::Lfi]);
    }

    #[test]
    fn lfi_basename_sanitizes() {
        let found = run(r#"<?php include 'pages/' . basename($_GET['page']);"#);
        assert!(found.is_empty());
    }

    #[test]
    fn dt_via_file_functions() {
        let found = run(r#"<?php $f = fopen($_GET['f'], 'r'); unlink($_POST['victim']);"#);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|c| c.class == VulnClass::DirTraversal));
    }

    #[test]
    fn dt_mode_argument_is_not_sensitive() {
        let found = run(r#"<?php fopen('data.txt', $_GET['mode']);"#);
        assert!(found.is_empty(), "only the path argument is sensitive");
    }

    #[test]
    fn scd_readfile() {
        let found = run(r#"<?php readfile($_GET['doc']);"#);
        assert_eq!(classes(&found), vec![VulnClass::Scd]);
    }

    // ---- command/code injection ----

    #[test]
    fn osci_system_and_sanitizer() {
        let v = run(r#"<?php system("ping " . $_GET['host']);"#);
        assert_eq!(classes(&v), vec![VulnClass::Osci]);
        let ok = run(r#"<?php system("ping " . escapeshellarg($_GET['host']));"#);
        assert!(ok.is_empty());
    }

    #[test]
    fn phpci_eval() {
        let found = run(r#"<?php eval('$x = ' . $_POST['expr'] . ';');"#);
        assert_eq!(classes(&found), vec![VulnClass::Phpci]);
    }

    // ---- the seven new classes ----

    #[test]
    fn ldapi_search() {
        let found = run(r#"<?php
            $filter = "(uid=" . $_GET['user'] . ")";
            ldap_search($conn, $base, $filter);"#);
        assert_eq!(classes(&found), vec![VulnClass::LdapI]);
    }

    #[test]
    fn xpathi_eval() {
        let found = run(r#"<?php xpath_eval($ctx, "//user[name='" . $_POST['u'] . "']");"#);
        assert_eq!(classes(&found), vec![VulnClass::XpathI]);
    }

    #[test]
    fn session_fixation_session_id() {
        let found = run(r#"<?php session_id($_GET['sid']); session_start();"#);
        assert_eq!(classes(&found), vec![VulnClass::SessionFixation]);
    }

    #[test]
    fn session_fixation_setcookie() {
        let found = run(r#"<?php setcookie('PHPSESSID', $_REQUEST['token']);"#);
        assert_eq!(classes(&found), vec![VulnClass::SessionFixation]);
    }

    #[test]
    fn comment_spam_file_put_contents() {
        let found = run(r#"<?php file_put_contents('comments.html', $_POST['comment']);"#);
        assert!(classes(&found).contains(&VulnClass::CommentSpam));
    }

    #[test]
    fn hi_and_ei_require_weapon() {
        let src = r#"<?php header("Location: " . $_GET['to']); mail($_POST['to'], 'Hi', 'msg');"#;
        // without the weapon: nothing
        assert!(run(src).is_empty());
        // with the -hei weapon: HI + EI
        let mut c = Catalog::wape();
        c.add_weapon(WeaponConfig::hei());
        let found = run_with(&c, src);
        let cls = classes(&found);
        assert!(cls.contains(&VulnClass::HeaderI));
        assert!(cls.contains(&VulnClass::EmailI));
    }

    #[test]
    fn nosqli_weapon_mongodb() {
        let src = r#"<?php
            $m = new MongoClient();
            $col = $m->selectCollection('db', 'users');
            $col->find(array('name' => $_GET['name']));"#;
        assert!(run(src).is_empty());
        let mut c = Catalog::wape();
        c.add_weapon(WeaponConfig::nosqli());
        let found = run_with(&c, src);
        assert_eq!(classes(&found), vec![VulnClass::NoSqlI]);
    }

    #[test]
    fn nosqli_weapon_sanitizer() {
        let mut c = Catalog::wape();
        c.add_weapon(WeaponConfig::nosqli());
        let found = run_with(
            &c,
            r#"<?php $col->find(array('n' => mysql_real_escape_string($_GET['n'])));"#,
        );
        assert!(found.is_empty());
    }

    #[test]
    fn wpsqli_weapon_wpdb() {
        let src = r#"<?php
            global $wpdb;
            $title = $_POST['title'];
            $wpdb->query("SELECT * FROM {$wpdb->prefix}posts WHERE title = '$title'");"#;
        assert!(run(src).is_empty(), "plain WAPe does not know $wpdb");
        let mut c = Catalog::wape();
        c.add_weapon(WeaponConfig::wpsqli());
        let found = run_with(&c, src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].class, VulnClass::Custom("WPSQLI".into()));
        assert!(found[0].sink.contains("wpdb"));
    }

    #[test]
    fn a_weapon_linked_between_two_scans_is_seen_by_the_second() {
        let src = r#"<?php
            $id = Get_Query_Var('id');
            $WPDB->Query("SELECT * FROM posts WHERE id = $id");"#;
        let mut c = Catalog::wape();
        assert!(run_with(&c, src).is_empty());
        c.add_weapon(WeaponConfig::wpsqli());
        let found = run_with(&c, src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].sink, "$WPDB->Query");
        assert_eq!(found[0].sources, vec!["Get_Query_Var()".to_string()]);
    }

    #[test]
    fn wpsqli_prepare_sanitizes() {
        let mut c = Catalog::wape();
        c.add_weapon(WeaponConfig::wpsqli());
        let found = run_with(
            &c,
            r#"<?php
            $sql = $wpdb->prepare("SELECT * FROM t WHERE id = %d", $_GET['id']);
            $wpdb->query($sql);"#,
        );
        assert!(found.is_empty());
    }

    #[test]
    fn weapon_entry_point_function() {
        let mut c = Catalog::wape();
        c.add_weapon(WeaponConfig::wpsqli());
        let found = run_with(
            &c,
            r#"<?php $p = get_query_var('page'); $wpdb->get_results("SELECT * FROM t LIMIT $p");"#,
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].sources, vec!["get_query_var()".to_string()]);
    }

    // ---- interprocedural ----

    #[test]
    fn interproc_taint_through_function_return() {
        let found = run(r#"<?php
            function get_input($key) { return trim($_GET[$key]); }
            $id = get_input('id');
            mysql_query("SELECT * FROM t WHERE id = $id");"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    #[test]
    fn interproc_param_to_sink_inside_function() {
        let found = run(r#"<?php
            function find_user($db, $name) {
                return mysql_query("SELECT * FROM users WHERE name = '$name'", $db);
            }
            find_user($conn, $_POST['name']);"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
        assert_eq!(found[0].sources, vec!["$_POST['name']".to_string()]);
    }

    #[test]
    fn interproc_sanitizing_wrapper() {
        let found = run(r#"<?php
            function clean($v) { return mysql_real_escape_string($v); }
            $id = clean($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id = '$id'");"#);
        assert!(
            found.is_empty(),
            "sanitization inside a wrapper must be tracked"
        );
    }

    #[test]
    fn interproc_entry_point_inside_function() {
        let found = run(r#"<?php
            function handler() {
                echo $_GET['msg'];
            }
            handler();"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn interproc_entry_point_in_uncalled_function_still_flagged() {
        let found = run(r#"<?php
            function dead_code() { mysql_query("X" . $_GET['a']); }"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    #[test]
    fn interproc_disabled_by_option() {
        let program = parse(
            r#"<?php
            function get_input($k) { return $_GET[$k]; }
            mysql_query("SELECT " . get_input('c'));"#,
        )
        .unwrap();
        let files = vec![SourceFile {
            name: "f.php".into(),
            program,
        }];
        let opts = AnalysisOptions {
            interprocedural: false,
            ..AnalysisOptions::default()
        };
        let found = analyze(&Catalog::wape(), &opts, &files);
        // the flow through get_input's return is invisible; but the direct
        // flow inside the (summarized) function body is also skipped
        assert!(found.iter().all(|c| !c
            .path
            .iter()
            .any(|s| s.what.as_str().contains("through get_input"))));
    }

    #[test]
    fn interproc_method_summary() {
        let found = run(r#"<?php
            class Repo {
                function find($id) {
                    return mysql_query("SELECT * FROM t WHERE id = $id");
                }
            }
            $r = new Repo();
            $r->find($_GET['id']);"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    #[test]
    fn recursion_terminates() {
        let found = run(r#"<?php
            function f($x) { if ($x) { return f($x . 'a'); } return $x; }
            mysql_query("Q" . f($_GET['v']));"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    /// Only the first declaration of a name is walked and summarized.
    #[test]
    fn first_declaration_of_a_name_defines_its_summary() {
        let found = run(r#"<?php
            function f($x) { return $x; }
            function f($x) { echo $_GET['b']; return 'clean'; }
            echo f($_GET['a']);"#);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].sources, vec!["$_GET['a']".to_string()]);
    }

    /// The recursion's summary is a fixpoint: `a` returns either
    /// parameter, which only the second round of the walk shows.
    #[test]
    fn recursive_swap_is_reported() {
        let found = run(r#"<?php
            function a($x, $y) { if (rand()) { return $y; } return a($y, $x); }
            echo a($_GET["q"], "c");"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn mutually_recursive_swap_is_reported() {
        let found = run(r#"<?php
            function a($x, $y) { if (rand()) { return $y; } return b($y, $x); }
            function b($x, $y) { return a($x, $y); }
            echo a($_GET["q"], "c");"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    /// A sink reached from a parameter through the recursion is a
    /// parameter sink of every member; witnesses lengthen each round, and
    /// the fixpoint still ends.
    #[test]
    fn recursive_parameter_sink_is_reported() {
        let found = run(r#"<?php
            function walk($q, $n) { if ($n) { return walk($n, $q); } mysql_query($q); }
            walk("x", $_GET["n"]);"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
    }

    // ---- control flow ----

    #[test]
    fn taint_joins_across_branches() {
        let found = run(r#"<?php
            if ($_GET['mode'] == 'a') { $v = $_GET['a']; } else { $v = 'default'; }
            echo $v;"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn loop_carried_taint() {
        let found = run(r#"<?php
            $q = "SELECT * FROM t WHERE 1=1";
            foreach ($_POST['filters'] as $f) {
                $q = $q . " AND c = '$f'";
            }
            mysql_query($q);"#);
        assert_eq!(classes(&found), vec![VulnClass::Sqli]);
        // the second trip carries the taint one assignment further
        let found = run(r#"<?php
            $a = ''; $b = '';
            while (rand()) { $b = $a; $a = $_GET['x']; }
            echo $b;"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn foreach_taints_key_and_value() {
        let found = run(r#"<?php foreach ($_GET as $k => $v) { echo $k; echo $v; }"#);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn switch_branches_join() {
        let found = run(r#"<?php
            switch ($_GET['t']) {
                case 'x': $out = $_GET['x']; break;
                default: $out = 'none';
            }
            echo $out;"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn unset_clears_taint() {
        let found = run(r#"<?php $x = $_GET['a']; unset($x); echo $x;"#);
        assert!(found.is_empty());
    }

    #[test]
    fn overwrite_with_literal_clears_taint() {
        let found = run(r#"<?php $x = $_GET['a']; $x = 'safe'; echo $x;"#);
        assert!(found.is_empty());
    }

    #[test]
    fn closure_body_is_analyzed() {
        let found = run(r#"<?php
            $handler = function () {
                echo $_GET['q'];
            };"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn closure_captured_taint() {
        let found = run(r#"<?php
            $q = $_GET['q'];
            $f = function () use ($q) { echo $q; };"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    // ---- misc semantics ----

    #[test]
    fn arithmetic_kills_taint() {
        let found = run(r#"<?php $n = $_GET['n'] + 1; echo $n;"#);
        assert!(found.is_empty());
    }

    #[test]
    fn comparison_kills_taint() {
        let found = run(r#"<?php $ok = ($_GET['a'] == 'x'); echo $ok;"#);
        assert!(found.is_empty());
    }

    #[test]
    fn md5_kills_taint() {
        let found = run(r#"<?php echo md5($_GET['p']);"#);
        assert!(found.is_empty());
    }

    #[test]
    fn array_element_insensitivity() {
        // storing tainted data in an array taints the array
        let found = run(r#"<?php
            $data = array();
            $data['name'] = $_POST['name'];
            echo $data['other'];"#);
        assert_eq!(
            found.len(),
            1,
            "element-insensitive arrays over-approximate"
        );
    }

    #[test]
    fn property_taint_tracking() {
        let found = run(r#"<?php
            $o->name = $_GET['n'];
            echo $o->name;"#);
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }

    #[test]
    fn user_sanitizer_escape_study() {
        // §V-A: vfront's `escape` function, unknown → flagged
        let src = r#"<?php
            function escape($v) { return str_replace("'", "''", $v); }
            $n = escape($_GET['n']);
            mysql_query("SELECT * FROM t WHERE n = '$n'");"#;
        assert_eq!(run(src).len(), 1);
        // fed to the tool as an external sanitizer → silent
        let mut c = Catalog::wape();
        c.add_user_sanitizer("escape", &[VulnClass::Sqli]);
        assert!(run_with(&c, src).is_empty());
    }

    #[test]
    fn multi_file_analysis_shares_functions() {
        let lib =
            parse(r#"<?php function fetch($db, $sql) { return mysql_query($sql, $db); }"#).unwrap();
        let app = parse(r#"<?php fetch($c, "SELECT " . $_GET['f'] . " FROM t");"#).unwrap();
        let files = vec![
            SourceFile {
                name: "lib.php".into(),
                program: lib,
            },
            SourceFile {
                name: "app.php".into(),
                program: app,
            },
        ];
        let found = analyze(&Catalog::wape(), &AnalysisOptions::default(), &files);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].class, VulnClass::Sqli);
        assert_eq!(found[0].file.as_deref(), Some("app.php"));
    }

    /// A fresh file calling into a cached file reads the callee's summary
    /// from the cached artifacts: the owner's body is not needed, and the
    /// flow through `fetch` is found either way.
    #[test]
    fn cached_owner_lends_its_summary_without_a_body() {
        let lib = parse(r#"<?php function fetch($k) { return $_GET[$k]; }"#).unwrap();
        let helper =
            parse(r#"<?php function wrap($k) { mysql_query("SELECT " . fetch($k)); }"#).unwrap();
        let lib_refs = [function_refs(lib.functions()[0])];
        let helper_refs = [function_refs(helper.functions()[0])];
        let pass = |lib_program: Option<&Program>, cached: Option<PassArtifacts>| {
            let files = [
                PassInput {
                    name: "lib.php".into(),
                    program: lib_program,
                    decl_names: vec![Symbol::intern("fetch")],
                    decl_refs: &lib_refs,
                    cached,
                },
                PassInput {
                    name: "helper.php".into(),
                    program: Some(&helper),
                    decl_names: vec![Symbol::intern("wrap")],
                    decl_refs: &helper_refs,
                    cached: None,
                },
            ];
            let functions: Vec<Vec<&Function>> = files
                .iter()
                .map(|f| f.program.map(Program::functions).unwrap_or_default())
                .collect();
            let functions: Vec<&[&Function]> = functions.iter().map(Vec::as_slice).collect();
            run_pass(
                &Catalog::wape(),
                &AnalysisOptions::default(),
                &files,
                &functions,
                &HashMap::new(),
                &Runtime::serial(),
                false,
                wap_obs::disabled().job(),
            )
        };
        let cold = pass(Some(&lib), None);
        assert_eq!(cold.artifacts[1].candidate_count(), 1, "flow through fetch");

        let warm = pass(Some(&lib), Some(cold.artifacts[0].clone()));
        assert_eq!(warm.artifacts, cold.artifacts);
        assert_eq!(warm.fresh, vec![false, true]);

        // lib.php replayed from the cache without its body
        let blind = pass(None, Some(cold.artifacts[0].clone()));
        assert_eq!(blind.artifacts, cold.artifacts);
        assert_eq!(
            blind.artifacts[1].candidate_count(),
            1,
            "flow through fetch"
        );
    }

    #[test]
    fn findings_are_ordered_and_deduplicated() {
        let found = run(r#"<?php
            $a = $_GET['a'];
            for ($i = 0; $i < 3; $i++) {
                mysql_query("Q $a");
            }
            echo $a;"#);
        // one SQLI (deduped across loop passes) + one XSS
        assert_eq!(found.len(), 2);
        let mut lines: Vec<u32> = found.iter().map(|c| c.line).collect();
        let sorted = {
            let mut s = lines.clone();
            s.sort();
            s
        };
        assert_eq!(lines, sorted);
        lines.dedup();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn candidate_path_tells_the_story() {
        let found = run(r#"<?php
            $id = $_GET['id'];
            $q = "SELECT * FROM t WHERE id = $id";
            mysql_query($q);"#);
        let path = &found[0].path;
        assert!(path.first().unwrap().what.as_str().contains("entry point"));
        assert!(path
            .last()
            .unwrap()
            .what
            .as_str()
            .contains("sensitive sink"));
        assert!(path
            .iter()
            .any(|s| s.what.as_str().contains("interpolation")));
    }

    #[test]
    fn retained_classes_limit_detection() {
        let mut c = Catalog::wape();
        c.retain_classes(&[VulnClass::XssReflected]);
        let found = run_with(
            &c,
            r#"<?php mysql_query("Q" . $_GET['a']); echo $_GET['b'];"#,
        );
        assert_eq!(classes(&found), vec![VulnClass::XssReflected]);
    }
}

#[cfg(test)]
mod shell_exec_tests {
    use super::*;
    use wap_php::parse;

    #[test]
    fn backtick_is_an_osci_sink() {
        let program = parse(r#"<?php $host = $_GET['h']; $out = `ping -c 1 $host`;"#).unwrap();
        let found = analyze_program(&Catalog::wape(), &program);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].class, VulnClass::Osci);
        assert!(found[0].sink.contains("backtick"));
    }

    #[test]
    fn sanitized_backtick_is_silent() {
        let program = parse(r#"<?php $h = escapeshellarg($_GET['h']); $out = `ping $h`;"#).unwrap();
        assert!(analyze_program(&Catalog::wape(), &program).is_empty());
    }

    #[test]
    fn backtick_output_is_clean() {
        let program = parse(r#"<?php $out = `ls $_GET[d]`; echo $out;"#).unwrap();
        let found = analyze_program(&Catalog::wape(), &program);
        // one OSCI for the backtick; no XSS for echoing its output
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].class, VulnClass::Osci);
    }
}

#[cfg(test)]
mod second_order_tests {
    use super::*;
    use wap_php::parse;

    fn run_with_opts(src: &str, second_order: bool) -> Vec<Candidate> {
        let program = parse(src).unwrap();
        let files = vec![SourceFile {
            name: "t.php".into(),
            program,
        }];
        let opts = AnalysisOptions {
            second_order,
            ..AnalysisOptions::default()
        };
        analyze(&Catalog::wape(), &opts, &files)
    }

    const STORED_XSS: &str = r#"<?php
$comment = $_POST['comment'];
mysql_query("INSERT INTO comments (body) VALUES ('$comment')");
$res = mysql_query("SELECT body FROM comments");
while ($row = mysql_fetch_assoc($res)) {
    echo "<p>" . $row['body'] . "</p>";
}
"#;

    #[test]
    fn stored_xss_found_only_with_second_order() {
        let first = run_with_opts(STORED_XSS, false);
        assert!(
            first.iter().all(|c| c.class != VulnClass::XssStored),
            "{first:?}"
        );
        let second = run_with_opts(STORED_XSS, true);
        assert!(
            second.iter().any(|c| c.class == VulnClass::XssStored),
            "{second:?}"
        );
        // the direct SQLI at the INSERT is found either way
        assert!(second.iter().any(|c| c.class == VulnClass::Sqli));
    }

    #[test]
    fn no_second_pass_without_a_tainted_store() {
        let src = r#"<?php
$res = mysql_query("SELECT body FROM comments");
while ($row = mysql_fetch_assoc($res)) {
    echo "<p>" . $row['body'] . "</p>";
}
"#;
        let found = run_with_opts(src, true);
        assert!(
            found.is_empty(),
            "clean database data is not tainted: {found:?}"
        );
    }

    #[test]
    fn sanitized_store_stops_the_second_pass() {
        let src = r#"<?php
$c = htmlentities($_POST['comment']);
$c = mysql_real_escape_string($c);
mysql_query("INSERT INTO comments (body) VALUES ('$c')");
echo mysql_fetch_assoc(mysql_query("SELECT body FROM comments"));
"#;
        let found = run_with_opts(src, true);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn extract_taints_unknown_variables() {
        let src = r#"<?php
extract($_POST);
mysql_query("SELECT * FROM users WHERE login = '$login'");
"#;
        let program = parse(src).unwrap();
        let found = analyze_program(&Catalog::wape(), &program);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].class, VulnClass::Sqli);
    }

    #[test]
    fn extract_of_clean_data_is_harmless() {
        let src = r#"<?php
extract($config);
mysql_query("SELECT * FROM t WHERE k = '$key'");
"#;
        let program = parse(src).unwrap();
        assert!(analyze_program(&Catalog::wape(), &program).is_empty());
    }

    #[test]
    fn known_variables_shadow_extract() {
        let src = r#"<?php
$login = 'admin';
extract($_POST);
mysql_query("SELECT 1 WHERE u = '$login'");
"#;
        let program = parse(src).unwrap();
        // $login was assigned a literal BEFORE extract; after extract PHP
        // overwrites it, but our model keeps explicit assignments — the
        // conservative direction here is debatable; we keep the explicit
        // binding and expect no finding
        assert!(analyze_program(&Catalog::wape(), &program).is_empty());
    }
}

#[cfg(test)]
mod desanitizer_tests {
    use super::*;
    use wap_php::parse;

    fn run(src: &str) -> Vec<Candidate> {
        analyze_program(&Catalog::wape(), &parse(src).unwrap())
    }

    #[test]
    fn stripslashes_revokes_addslashes() {
        let found = run(r#"<?php
$x = addslashes($_GET['x']);
$x = stripslashes($x);
mysql_query("SELECT * FROM t WHERE c = '$x'");"#);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0]
            .path
            .iter()
            .any(|s| s.what.as_str().contains("de-sanitized")));
    }

    #[test]
    fn html_entity_decode_revokes_htmlentities() {
        let found = run(r#"<?php
$m = htmlentities($_GET['m']);
echo html_entity_decode($m);"#);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].class, VulnClass::XssReflected);
    }

    #[test]
    fn decoder_on_clean_data_stays_clean() {
        let found = run(r#"<?php echo urldecode('a%20b');"#);
        assert!(found.is_empty());
    }

    #[test]
    fn properly_sanitized_after_decode_is_silent() {
        let found = run(r#"<?php
$x = stripslashes($_POST['x']);
$x = mysql_real_escape_string($x);
mysql_query("SELECT * FROM t WHERE c = '$x'");"#);
        assert!(found.is_empty());
    }

    #[test]
    fn sprintf_propagates_taint_and_query_text() {
        let found = run(r#"<?php
$q = sprintf("SELECT * FROM users WHERE login = '%s'", $_POST['login']);
mysql_query($q);"#);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].class, VulnClass::Sqli);
        assert!(found[0].literal_text().contains("SELECT * FROM users"));
    }
}
