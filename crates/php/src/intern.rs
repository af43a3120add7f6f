//! Global string interning for identifiers.
//!
//! Every identifier-like string the front end produces — variable names,
//! function names, class/method/property names, taint sources — is interned
//! into a process-wide table and handled as a [`Symbol`]: a `Copy` 4-byte
//! handle. Equality and hashing are a single `u32` compare, which is what
//! makes the hot taint-propagation loops cheap; cloning an AST node or a
//! taint state no longer copies string data.
//!
//! ## Determinism contract
//!
//! Symbol *ids* depend on interleaving when files are parsed in parallel, so
//! they must never influence output bytes or cache bytes. Two properties
//! enforce that here:
//!
//! * [`Ord`] compares the resolved **strings**, not the ids (with an
//!   id-equality fast path — the global table makes id equality equivalent
//!   to string equality). Ordered containers of symbols therefore iterate
//!   in the same order as the string-based containers they replaced.
//! * [`std::fmt::Debug`] prints exactly like `String`'s `Debug`, so debug
//!   formatting of ASTs is byte-identical to the pre-interning
//!   representation.
//!
//! Cache codecs must keep serializing strings and re-intern on load.
//!
//! ## Concurrency
//!
//! Interning (the write path) runs under a lock; **resolving** a symbol back
//! to its string (`as_str`, `lower`) is lock-free. Resolved entries live in
//! an append-only two-level table: a fixed array of chunk pointers, each
//! chunk holding `CHUNK_LEN` write-once slots. A slot is fully written —
//! and its chunk pointer Release-published — before the symbol id ever
//! escapes `intern`, so any thread that legitimately holds a `Symbol` id
//! also has a happens-before edge to that slot's contents (via the intern
//! lock, or via whatever synchronization carried the `Symbol` across
//! threads). Resolution is therefore a single Acquire pointer load plus an
//! indexed read — no lock, which matters because the taint loops resolve
//! symbols millions of times per scan.
//!
//! ## Memory
//!
//! The table is append-only and process-lifetime: strings are copied once
//! into a [`StrArena`] and never freed. The
//! vocabulary of identifiers in scanned code is small and highly repetitive,
//! so a resident scanner service reuses entries across scans instead of
//! re-allocating them.

use crate::arena::StrArena;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string: a 4-byte `Copy` handle with O(1) equality/hash.
///
/// # Examples
///
/// ```
/// use wap_php::Symbol;
/// let a = Symbol::intern("mysql_query");
/// let b = Symbol::intern("mysql_query");
/// assert_eq!(a, b);               // u32 compare
/// assert_eq!(a.as_str(), "mysql_query");
/// assert_eq!(a, "mysql_query");   // convenience compare against &str
/// assert_eq!(Symbol::intern("FOO").lower().as_str(), "foo");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// One resolved interner entry: the string plus its precomputed
/// ASCII-lowercase symbol id (avoids the `to_ascii_lowercase` allocation in
/// every case-insensitive lookup).
#[derive(Clone, Copy)]
struct Entry {
    text: &'static str,
    lower: u32,
}

const CHUNK_BITS: u32 = 12;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const MAX_CHUNKS: usize = 1024; // 4 Mi symbols; far beyond any real scan

struct Chunk {
    slots: [UnsafeCell<MaybeUninit<Entry>>; CHUNK_LEN],
}

// SAFETY: slots are write-once, written strictly before their id escapes
// the intern lock; see the module-level concurrency notes.
unsafe impl Sync for Chunk {}

#[allow(clippy::declare_interior_mutable_const)]
const NULL_CHUNK: AtomicPtr<Chunk> = AtomicPtr::new(std::ptr::null_mut());
static CHUNKS: [AtomicPtr<Chunk>; MAX_CHUNKS] = [NULL_CHUNK; MAX_CHUNKS];

/// Lock-free resolve: id -> entry. Callable only with ids minted by
/// `intern` (the only way user code obtains a `Symbol`).
#[inline]
fn entry(id: u32) -> Entry {
    let chunk = CHUNKS[(id >> CHUNK_BITS) as usize].load(Ordering::Acquire);
    debug_assert!(!chunk.is_null(), "Symbol id {id} was never interned");
    // SAFETY: `intern` fully wrote this slot and Release-published its
    // chunk before returning the id, and the id reached this thread
    // through some synchronization (the intern lock or the mechanism that
    // transferred the `Symbol` across threads), so the write
    // happens-before this read.
    unsafe { (*(*chunk).slots[id as usize & (CHUNK_LEN - 1)].get()).assume_init() }
}

/// Write-once slot publication. Must be called under the intern lock (it
/// is the only writer), with ids assigned densely from 0.
fn publish(id: u32, e: Entry) {
    let chunk_idx = (id >> CHUNK_BITS) as usize;
    assert!(
        chunk_idx < MAX_CHUNKS,
        "interner capacity exceeded ({} symbols)",
        MAX_CHUNKS * CHUNK_LEN
    );
    let mut chunk = CHUNKS[chunk_idx].load(Ordering::Acquire);
    if chunk.is_null() {
        // SAFETY: every slot is `MaybeUninit`, so an uninitialized chunk
        // is a valid value of the type.
        let fresh: Box<Chunk> = unsafe { Box::new(MaybeUninit::uninit().assume_init()) };
        chunk = Box::into_raw(fresh);
        CHUNKS[chunk_idx].store(chunk, Ordering::Release);
    }
    // SAFETY: single writer (intern lock held), and no reader touches slot
    // `id` until `intern` returns the id.
    unsafe {
        (*chunk).slots[id as usize & (CHUNK_LEN - 1)]
            .get()
            .write(MaybeUninit::new(e))
    }
}

struct Inner {
    map: HashMap<&'static str, u32>,
    len: u32,
    arena: StrArena,
}

impl Inner {
    fn new() -> Self {
        let mut inner = Inner {
            map: HashMap::with_capacity(1024),
            len: 0,
            arena: StrArena::new(),
        };
        // Symbol(0) is the empty string (and `Symbol::default()`).
        inner.intern("");
        inner
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        // Intern the lowercase form first: slots are write-once, so the
        // new entry must embed its lowered id up front. (This orders ids
        // differently from insertion order of mixed-case strings, which is
        // fine — ids never influence output or cache bytes.)
        let lower = if s.bytes().any(|b| b.is_ascii_uppercase()) {
            Some(self.intern(&s.to_ascii_lowercase()))
        } else {
            None
        };
        // SAFETY: the arena lives inside a process-lifetime static and its
        // chunk buffers are never moved or freed, so extending the borrow
        // to 'static is sound.
        let stable: &'static str =
            unsafe { std::mem::transmute::<&str, &'static str>(self.arena.alloc(s)) };
        let id = self.len;
        self.len += 1;
        publish(
            id,
            Entry {
                text: stable,
                lower: lower.unwrap_or(id),
            },
        );
        self.map.insert(stable, id);
        id
    }
}

fn table() -> &'static Mutex<Inner> {
    static TABLE: OnceLock<Mutex<Inner>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Inner::new()))
}

impl Symbol {
    /// Interns `s`, returning the canonical symbol for it.
    pub fn intern(s: &str) -> Symbol {
        let mut inner = table().lock().unwrap_or_else(|e| e.into_inner());
        Symbol(inner.intern(s))
    }

    /// The empty-string symbol.
    pub fn empty() -> Symbol {
        Symbol(0)
    }

    /// Resolves the symbol to its string. Lock-free.
    #[inline]
    pub fn as_str(self) -> &'static str {
        entry(self.0).text
    }

    /// The ASCII-lowercased version of this symbol (precomputed at intern
    /// time; no allocation). Lock-free.
    #[inline]
    pub fn lower(self) -> Symbol {
        Symbol(entry(self.0).lower)
    }

    /// Whether the symbol resolves to the empty string.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw table index. Only meaningful within this process; never
    /// persist it.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Default for Symbol {
    fn default() -> Self {
        Symbol::empty()
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("foo_bar");
        let b = Symbol::intern("foo_bar");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "foo_bar");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("alpha"), Symbol::intern("beta"));
    }

    #[test]
    fn empty_symbol() {
        assert_eq!(Symbol::empty(), Symbol::intern(""));
        assert!(Symbol::default().is_empty());
        assert!(!Symbol::intern("x").is_empty());
    }

    #[test]
    fn ord_is_string_order_not_id_order() {
        // Intern in reverse lexicographic order so id order disagrees with
        // string order.
        let z = Symbol::intern("zzz_ord_test");
        let a = Symbol::intern("aaa_ord_test");
        assert!(a < z, "Ord must follow string content");
        let set: BTreeSet<Symbol> = [z, a].into_iter().collect();
        let in_order: Vec<&str> = set.iter().map(|s| s.as_str()).collect();
        assert_eq!(in_order, vec!["aaa_ord_test", "zzz_ord_test"]);
    }

    #[test]
    fn debug_matches_string_debug() {
        let s = Symbol::intern("with \"quotes\" and \\ backslash");
        let as_string = String::from("with \"quotes\" and \\ backslash");
        assert_eq!(format!("{s:?}"), format!("{as_string:?}"));
    }

    #[test]
    fn lower_is_precomputed() {
        assert_eq!(Symbol::intern("MyClass").lower(), Symbol::intern("myclass"));
        let already = Symbol::intern("lowercase");
        assert_eq!(already.lower(), already);
    }

    #[test]
    fn str_comparisons() {
        let s = Symbol::intern("echo");
        assert_eq!(s, "echo");
        assert_eq!("echo", s);
        assert_ne!(s, "print");
    }

    #[test]
    fn symbols_across_chunk_boundary_resolve() {
        // Force the table across at least one 4096-entry chunk boundary
        // and check every symbol still resolves to its own string.
        let syms: Vec<(String, Symbol)> = (0..(CHUNK_LEN + 64))
            .map(|i| {
                let name = format!("chunk_boundary_sym_{i}");
                let s = Symbol::intern(&name);
                (name, s)
            })
            .collect();
        for (name, s) in &syms {
            assert_eq!(s.as_str(), name);
            assert_eq!(s.lower(), *s);
        }
    }

    #[test]
    fn concurrent_intern_same_ids() {
        let names: Vec<String> = (0..200).map(|i| format!("conc_sym_{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| Symbol::intern(n)).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "same strings must intern to same symbols");
        }
    }
}
