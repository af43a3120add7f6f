//! Binary serialization of taint-analysis artifacts for the incremental
//! cache.
//!
//! [`PassArtifacts`] — a file's summaries, candidates, and store flag from
//! one analysis pass — round-trips through `wap-cache`'s length-prefixed
//! codec. Candidates are also encodable on their own so `wap-core` can
//! embed them in cached findings. Decoding is total: corrupt bytes yield
//! a [`CodecError`], never a panic, and the cache discards the entry.
//!
//! The byte layout is unversioned by design: the store stamps every entry
//! with its format version and a checksum, so layout changes only require
//! bumping [`wap_cache::ENTRY_FORMAT_VERSION`].

use crate::engine::{FnSummary, ParamFlow, ParamSink, PassArtifacts};
use crate::finding::Candidate;
use crate::state::{TaintInfo, TaintState, TaintStep};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use wap_cache::{CodecError, Reader, Writer};
use wap_catalog::VulnClass;
use wap_php::{Span, Symbol};

type Result<T> = std::result::Result<T, CodecError>;

// ---- primitives ----

fn write_span(w: &mut Writer, s: Span) {
    w.u32(s.start());
    w.u32(s.end());
    w.u32(s.line());
}

fn read_span(r: &mut Reader<'_>) -> Result<Span> {
    let start = r.u32()?;
    let end = r.u32()?;
    let line = r.u32()?;
    Ok(Span::new(start, end, line))
}

fn write_class(w: &mut Writer, c: &VulnClass) {
    let tag: u8 = match c {
        VulnClass::Sqli => 0,
        VulnClass::XssReflected => 1,
        VulnClass::XssStored => 2,
        VulnClass::Rfi => 3,
        VulnClass::Lfi => 4,
        VulnClass::DirTraversal => 5,
        VulnClass::Osci => 6,
        VulnClass::Scd => 7,
        VulnClass::Phpci => 8,
        VulnClass::LdapI => 9,
        VulnClass::XpathI => 10,
        VulnClass::SessionFixation => 11,
        VulnClass::NoSqlI => 12,
        VulnClass::CommentSpam => 13,
        VulnClass::HeaderI => 14,
        VulnClass::EmailI => 15,
        VulnClass::Custom(_) => 16,
    };
    w.u8(tag);
    if let VulnClass::Custom(name) = c {
        w.str(name);
    }
}

fn read_class(r: &mut Reader<'_>) -> Result<VulnClass> {
    Ok(match r.u8()? {
        0 => VulnClass::Sqli,
        1 => VulnClass::XssReflected,
        2 => VulnClass::XssStored,
        3 => VulnClass::Rfi,
        4 => VulnClass::Lfi,
        5 => VulnClass::DirTraversal,
        6 => VulnClass::Osci,
        7 => VulnClass::Scd,
        8 => VulnClass::Phpci,
        9 => VulnClass::LdapI,
        10 => VulnClass::XpathI,
        11 => VulnClass::SessionFixation,
        12 => VulnClass::NoSqlI,
        13 => VulnClass::CommentSpam,
        14 => VulnClass::HeaderI,
        15 => VulnClass::EmailI,
        16 => VulnClass::Custom(r.str()?),
        t => return Err(CodecError(format!("unknown VulnClass tag {t}"))),
    })
}

fn write_class_set(w: &mut Writer, set: &BTreeSet<VulnClass>) {
    w.seq(set.len());
    for c in set {
        write_class(w, c);
    }
}

fn read_class_set(r: &mut Reader<'_>) -> Result<BTreeSet<VulnClass>> {
    let n = r.seq()?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        set.insert(read_class(r)?);
    }
    Ok(set)
}

/// Writes a symbol set as its strings. `BTreeSet<Symbol>` iterates in
/// string order (symbol `Ord` compares the resolved strings), so the byte
/// layout matches the `BTreeSet<String>` encoding it replaced.
fn write_sym_set(w: &mut Writer, set: &BTreeSet<Symbol>) {
    w.seq(set.len());
    for s in set {
        w.str(s.as_str());
    }
}

fn read_sym_set(r: &mut Reader<'_>) -> Result<BTreeSet<Symbol>> {
    let n = r.seq()?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        set.insert(Symbol::intern(&r.str()?));
    }
    Ok(set)
}

fn write_str_vec(w: &mut Writer, v: &[String]) {
    w.seq(v.len());
    for s in v {
        w.str(s);
    }
}

fn read_str_vec(r: &mut Reader<'_>) -> Result<Vec<String>> {
    let n = r.seq()?;
    let mut v = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        v.push(r.str()?);
    }
    Ok(v)
}

fn write_opt_usize(w: &mut Writer, v: Option<usize>) {
    match v {
        Some(n) => {
            w.bool(true);
            w.usize(n);
        }
        None => w.bool(false),
    }
}

fn read_opt_usize(r: &mut Reader<'_>) -> Result<Option<usize>> {
    if r.bool()? {
        Ok(Some(r.usize()?))
    } else {
        Ok(None)
    }
}

// ---- taint state ----

fn write_step(w: &mut Writer, s: &TaintStep) {
    w.str(s.what.as_str());
    w.u32(s.line);
    write_span(w, s.span);
}

fn read_step(r: &mut Reader<'_>) -> Result<TaintStep> {
    Ok(TaintStep {
        what: Symbol::intern(&r.str()?),
        line: r.u32()?,
        span: read_span(r)?,
    })
}

fn write_steps(w: &mut Writer, steps: &[TaintStep]) {
    w.seq(steps.len());
    for s in steps {
        write_step(w, s);
    }
}

fn read_steps(r: &mut Reader<'_>) -> Result<Vec<TaintStep>> {
    let n = r.seq()?;
    let mut v = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        v.push(read_step(r)?);
    }
    Ok(v)
}

fn write_taint_state(w: &mut Writer, t: &TaintState) {
    match t {
        TaintState::Clean => w.u8(0),
        TaintState::Tainted(info) => {
            w.u8(1);
            write_sym_set(w, &info.sources);
            write_class_set(w, &info.sanitized);
            write_steps(w, &info.steps);
            write_sym_set(w, &info.carriers);
            write_str_vec(w, &info.literals);
        }
    }
}

fn read_taint_state(r: &mut Reader<'_>) -> Result<TaintState> {
    Ok(match r.u8()? {
        0 => TaintState::Clean,
        1 => TaintState::Tainted(std::sync::Arc::new(TaintInfo {
            sources: read_sym_set(r)?,
            sanitized: read_class_set(r)?,
            steps: read_steps(r)?,
            carriers: read_sym_set(r)?,
            literals: read_str_vec(r)?,
        })),
        t => return Err(CodecError(format!("unknown TaintState tag {t}"))),
    })
}

// ---- summaries ----

fn write_summary(w: &mut Writer, s: &FnSummary) {
    w.seq(s.ret_from_params.len());
    for p in &s.ret_from_params {
        w.bool(p.flows);
        write_class_set(w, &p.sanitized);
    }
    write_taint_state(w, &s.ret_direct);
    w.seq(s.param_sinks.len());
    for ps in &s.param_sinks {
        w.usize(ps.param);
        write_class(w, &ps.class);
        w.str(&ps.sink);
        write_span(w, ps.span);
        write_span(w, ps.fix_site);
        write_opt_usize(w, ps.tainted_arg);
        write_str_vec(w, &ps.literals);
        write_class_set(w, &ps.sanitized);
        write_steps(w, &ps.inner_steps);
    }
}

fn read_summary(r: &mut Reader<'_>) -> Result<FnSummary> {
    let n = r.seq()?;
    let mut ret_from_params = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ret_from_params.push(ParamFlow {
            flows: r.bool()?,
            sanitized: read_class_set(r)?,
        });
    }
    let ret_direct = read_taint_state(r)?;
    let n = r.seq()?;
    let mut param_sinks = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        param_sinks.push(ParamSink {
            param: r.usize()?,
            class: read_class(r)?,
            sink: r.str()?,
            span: read_span(r)?,
            fix_site: read_span(r)?,
            tainted_arg: read_opt_usize(r)?,
            literals: read_str_vec(r)?,
            sanitized: read_class_set(r)?,
            inner_steps: read_steps(r)?,
        });
    }
    Ok(FnSummary {
        ret_from_params,
        ret_direct,
        param_sinks,
    })
}

// ---- candidates ----

/// Encodes one candidate. Public so `wap-core` can embed candidates in
/// cached findings with the same layout the pass artifacts use.
pub fn write_candidate(w: &mut Writer, c: &Candidate) {
    write_class(w, &c.class);
    w.str(&c.sink);
    write_span(w, c.sink_span);
    w.u32(c.line);
    write_str_vec(w, &c.sources);
    write_steps(w, &c.path);
    write_str_vec(w, &c.carriers);
    write_opt_usize(w, c.tainted_arg);
    write_span(w, c.fix_site);
    write_str_vec(w, &c.literal_fragments);
    w.opt_str(c.file.as_deref());
}

/// Decodes one candidate written by [`write_candidate`].
///
/// # Errors
///
/// Returns [`CodecError`] on truncated or malformed input.
pub fn read_candidate(r: &mut Reader<'_>) -> Result<Candidate> {
    Ok(Candidate {
        class: read_class(r)?,
        sink: r.str()?,
        sink_span: read_span(r)?,
        line: r.u32()?,
        sources: read_str_vec(r)?,
        path: read_steps(r)?,
        carriers: read_str_vec(r)?,
        tainted_arg: read_opt_usize(r)?,
        fix_site: read_span(r)?,
        literal_fragments: read_str_vec(r)?,
        file: r.opt_str()?,
    })
}

fn write_candidates(w: &mut Writer, cs: &[Candidate]) {
    w.seq(cs.len());
    for c in cs {
        write_candidate(w, c);
    }
}

fn read_candidates(r: &mut Reader<'_>) -> Result<Vec<Candidate>> {
    let n = r.seq()?;
    let mut v = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        v.push(read_candidate(r)?);
    }
    Ok(v)
}

// ---- pass artifacts ----

impl PassArtifacts {
    /// Serializes the artifacts for the cache. Summaries are written in
    /// sorted name order so identical artifacts always produce identical
    /// bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let mut names: Vec<Symbol> = self.summaries.keys().copied().collect();
        names.sort();
        w.seq(names.len());
        for name in names {
            w.str(name.as_str());
            write_summary(&mut w, &self.summaries[&name]);
        }
        write_candidates(&mut w, &self.a_candidates);
        write_candidates(&mut w, &self.b_candidates);
        w.bool(self.store_seen);
        w.into_bytes()
    }

    /// Decodes artifacts written by [`PassArtifacts::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input, including
    /// trailing garbage after a well-formed prefix.
    pub fn from_bytes(bytes: &[u8]) -> Result<PassArtifacts> {
        let mut r = Reader::new(bytes);
        let n = r.seq()?;
        let mut summaries = HashMap::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = r.str()?;
            let summary = read_summary(&mut r)?;
            summaries.insert(Symbol::intern(&name), Arc::new(summary));
        }
        let a_candidates = read_candidates(&mut r)?;
        let b_candidates = read_candidates(&mut r)?;
        let store_seen = r.bool()?;
        if !r.is_empty() {
            return Err(CodecError(format!(
                "{} trailing bytes after pass artifacts",
                r.remaining()
            )));
        }
        Ok(PassArtifacts {
            summaries,
            a_candidates,
            b_candidates,
            store_seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_candidate() -> Candidate {
        Candidate {
            class: VulnClass::Sqli,
            sink: "mysql_query".into(),
            sink_span: Span::new(10, 42, 3),
            line: 3,
            sources: vec!["$_GET['id']".into()],
            path: vec![TaintStep::new(
                "entry point $_GET['id']",
                Span::new(10, 20, 3),
            )],
            carriers: vec!["id".into()],
            tainted_arg: Some(0),
            fix_site: Span::new(12, 40, 3),
            literal_fragments: vec!["SELECT * FROM t WHERE id = ".into()],
            file: Some("index.php".into()),
        }
    }

    fn sample_artifacts() -> PassArtifacts {
        let mut sanitized = BTreeSet::new();
        sanitized.insert(VulnClass::Sqli);
        sanitized.insert(VulnClass::Custom("XXE".into()));
        let summary = FnSummary {
            ret_from_params: vec![
                ParamFlow {
                    flows: true,
                    sanitized: sanitized.clone(),
                },
                ParamFlow::default(),
            ],
            ret_direct: TaintState::source("$_POST['q']", Span::new(1, 2, 1)),
            param_sinks: vec![ParamSink {
                param: 1,
                class: VulnClass::XssReflected,
                sink: "echo".into(),
                span: Span::new(5, 9, 2),
                fix_site: Span::new(6, 8, 2),
                tainted_arg: None,
                literals: vec!["<b>".into()],
                sanitized: BTreeSet::new(),
                inner_steps: vec![TaintStep::new("echoed", Span::new(5, 9, 2))],
            }],
        };
        let mut summaries = HashMap::new();
        summaries.insert("render".into(), Arc::new(summary));
        summaries.insert("helper".into(), Arc::default());
        PassArtifacts {
            summaries,
            a_candidates: vec![sample_candidate()],
            b_candidates: vec![sample_candidate(), sample_candidate()],
            store_seen: true,
        }
    }

    #[test]
    fn pass_artifacts_round_trip() {
        let a = sample_artifacts();
        let bytes = a.to_bytes();
        let back = PassArtifacts::from_bytes(&bytes).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn empty_artifacts_round_trip() {
        let a = PassArtifacts::default();
        let back = PassArtifacts::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn serialization_is_deterministic() {
        // HashMap iteration order must not leak into the bytes
        let a = sample_artifacts();
        assert_eq!(a.to_bytes(), a.to_bytes());
        let b = sample_artifacts();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn candidate_round_trip() {
        let c = sample_candidate();
        let mut w = Writer::new();
        write_candidate(&mut w, &c);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_candidate(&mut r).unwrap(), c);
        assert!(r.is_empty());
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = sample_artifacts().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                PassArtifacts::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = sample_artifacts().to_bytes();
        bytes.push(0);
        assert!(PassArtifacts::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        let mut w = Writer::new();
        w.u8(99);
        let bytes = w.into_bytes();
        assert!(read_class(&mut Reader::new(&bytes)).is_err());
        assert!(read_taint_state(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn all_classes_round_trip() {
        let all = [
            VulnClass::Sqli,
            VulnClass::XssReflected,
            VulnClass::XssStored,
            VulnClass::Rfi,
            VulnClass::Lfi,
            VulnClass::DirTraversal,
            VulnClass::Osci,
            VulnClass::Scd,
            VulnClass::Phpci,
            VulnClass::LdapI,
            VulnClass::XpathI,
            VulnClass::NoSqlI,
            VulnClass::CommentSpam,
            VulnClass::HeaderI,
            VulnClass::EmailI,
            VulnClass::SessionFixation,
        ];
        for class in all {
            let mut w = Writer::new();
            write_class(&mut w, &class);
            let bytes = w.into_bytes();
            assert_eq!(read_class(&mut Reader::new(&bytes)).unwrap(), class);
        }
        let custom = VulnClass::Custom("LDAP2".into());
        let mut w = Writer::new();
        write_class(&mut w, &custom);
        let bytes = w.into_bytes();
        assert_eq!(read_class(&mut Reader::new(&bytes)).unwrap(), custom);
    }
}
