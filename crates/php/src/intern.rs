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
//! **Interning** (the write path) is split over 32 independently
//! locked shards, each a string → id map with its own [`StrArena`]; a
//! cheap unkeyed hash of the bytes picks the shard, so threads interning
//! different strings rarely meet on a lock. Each map keeps std's keyed
//! SipHash, because the strings come from scanned code, which `wap serve`
//! accepts from anyone: a crafted vocabulary can at worst crowd one
//! shard, never degrade a map into collisions. Ids come from one atomic
//! counter, so they stay dense and `Symbol(0)` is `""`. A string with
//! ASCII uppercase interns its lowercase form first, with no lock held,
//! and only then locks its own shard: no thread ever holds two shard
//! locks.
//!
//! **Resolving** a symbol back to its string (`as_str`, `lower`) takes no
//! lock. Resolved entries live in an append-only two-level table: a fixed
//! array of chunk pointers, each chunk holding `CHUNK_LEN` write-once
//! slots. Concurrent interns publish into it at once: a missing chunk is
//! installed by compare-exchange (the loser frees its copy), and each slot
//! is written by the one thread that drew its id, before the id is
//! inserted into its shard's map or returned. Any thread that
//! legitimately holds a `Symbol` therefore has a happens-before edge to
//! that slot's contents (via the shard lock, or via whatever
//! synchronization carried the `Symbol` across threads). Resolution is a
//! single Acquire pointer load plus an indexed read, which matters
//! because the taint loops resolve symbols millions of times per scan.
//!
//! A single global lock made every intern of every parse thread meet on
//! one mutex: on a 2-job scan of a 257k-LoC app a profile put 9.5% of the
//! CPU time in `Symbol::intern`, 1.9% of it waiting for that lock.
//!
//! ## Memory
//!
//! The table is append-only and process-lifetime: strings are copied once
//! into a shard's [`StrArena`] and never freed. The vocabulary of
//! identifiers in scanned code is small and highly repetitive, so a
//! resident scanner service reuses entries across scans instead of
//! re-allocating them.

use crate::arena::StrArena;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

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

// SAFETY: slots are write-once, each written by the one thread that drew
// its id and before that id escapes; see the module-level concurrency
// notes.
unsafe impl Sync for Chunk {}

#[allow(clippy::declare_interior_mutable_const)]
const NULL_CHUNK: AtomicPtr<Chunk> = AtomicPtr::new(std::ptr::null_mut());
static CHUNKS: [AtomicPtr<Chunk>; MAX_CHUNKS] = [NULL_CHUNK; MAX_CHUNKS];

/// The next id to hand out. Ids are drawn under a shard lock and every
/// drawn id is published, so the table stays dense.
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// Lock-free resolve: id -> entry. Callable only with ids minted by
/// `intern` (the only way user code obtains a `Symbol`).
#[inline]
fn entry(id: u32) -> Entry {
    let chunk = CHUNKS[(id >> CHUNK_BITS) as usize].load(Ordering::Acquire);
    debug_assert!(!chunk.is_null(), "Symbol id {id} was never interned");
    // SAFETY: `intern` fully wrote this slot and Release-published its
    // chunk before returning the id, and the id reached this thread
    // through some synchronization (a shard lock or the mechanism that
    // transferred the `Symbol` across threads), so the write
    // happens-before this read.
    unsafe { (*(*chunk).slots[id as usize & (CHUNK_LEN - 1)].get()).assume_init() }
}

/// Write-once slot publication. Must be called exactly once per id, by
/// the thread that drew the id from [`NEXT_ID`], before the id escapes.
/// Other threads may publish other ids concurrently.
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
        let fresh = Box::into_raw(fresh);
        chunk = match CHUNKS[chunk_idx].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(installed) => {
                // SAFETY: `fresh` came from `Box::into_raw` above and lost
                // the race, so no other thread ever saw it.
                drop(unsafe { Box::from_raw(fresh) });
                installed
            }
        };
    }
    // SAFETY: this thread drew `id`, so it is the slot's only writer, and
    // no reader touches slot `id` until the id escapes `intern`.
    unsafe {
        (*chunk).slots[id as usize & (CHUNK_LEN - 1)]
            .get()
            .write(MaybeUninit::new(e))
    }
}

/// Number of independently locked interner shards (a power of two:
/// [`shard_of`] takes the top bits of a hash).
const SHARDS: usize = 32;
const _: () = assert!(SHARDS.is_power_of_two());

/// One shard of the intern table: the strings whose bytes hash to it.
struct Shard {
    map: HashMap<&'static str, u32>,
    arena: StrArena,
}

impl Shard {
    /// Inserts `s`, which this shard does not hold yet, under a fresh id
    /// whose entry records `lower` (or the new id itself when `None`).
    fn insert(&mut self, s: &str, lower: Option<u32>) -> u32 {
        // SAFETY: the arena lives inside a process-lifetime static and its
        // chunk buffers are never moved or freed, so extending the borrow
        // to 'static is sound.
        let stable: &'static str =
            unsafe { std::mem::transmute::<&str, &'static str>(self.arena.alloc(s)) };
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
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

/// A shard's lock, alone on its cache lines so neighbouring shards'
/// lock words never share one.
#[repr(align(128))]
struct PaddedShard(Mutex<Shard>);

fn shards() -> &'static [PaddedShard; SHARDS] {
    static TABLE: OnceLock<[PaddedShard; SHARDS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let table: [PaddedShard; SHARDS] = std::array::from_fn(|_| {
            PaddedShard(Mutex::new(Shard {
                map: HashMap::with_capacity(64),
                arena: StrArena::new(),
            }))
        });
        // Symbol(0) is the empty string (and `Symbol::default()`): no
        // other intern can draw an id before this initializer returns.
        let mut empty = lock(&table[shard_of("")]);
        let id = empty.insert("", None);
        debug_assert_eq!(id, 0);
        drop(empty);
        table
    })
}

/// Locks a shard. Every update leaves the shard valid (the map gains an
/// entry only after its slot is published), so a guard poisoned by a
/// panicking thread is still sound to use.
fn lock(shard: &PaddedShard) -> MutexGuard<'_, Shard> {
    shard.0.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shard `s` belongs to: an unkeyed multiplicative hash of its bytes.
/// It only spreads lock traffic; the shard's map does the keyed hashing.
#[inline]
fn shard_of(s: &str) -> usize {
    let mut h: u32 = s.len() as u32;
    for &b in s.as_bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    (h.wrapping_mul(0x9E37_79B9) >> (32 - SHARDS.trailing_zeros())) as usize
}

impl Symbol {
    /// Interns `s`, returning the canonical symbol for it.
    pub fn intern(s: &str) -> Symbol {
        let shard = &shards()[shard_of(s)];
        let mut guard = lock(shard);
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        if !s.bytes().any(|b| b.is_ascii_uppercase()) {
            return Symbol(guard.insert(s, None));
        }
        // Slots are write-once, so the new entry must embed its lowered id
        // up front. Intern the lowercase form with this shard unlocked (it
        // may live in any shard), then look again: another thread may have
        // interned `s` meanwhile. (Ids of mixed-case strings thus follow
        // their lowercase forms, which is fine — ids never influence output
        // or cache bytes.)
        drop(guard);
        let lower = Symbol::intern(&s.to_ascii_lowercase()).0;
        let mut guard = lock(shard);
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        Symbol(guard.insert(s, Some(lower)))
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
    fn concurrent_mixed_case_interns_agree_across_a_chunk_boundary() {
        // More fresh strings than one chunk holds, in three casings, so
        // the threads draw ids across at least one chunk boundary and race
        // to install the chunk; every mixed-case string also interns its
        // lowercase form, which another thread may be interning at once.
        const THREADS: usize = 6;
        let words: Vec<String> = (0..CHUNK_LEN + 512)
            .flat_map(|i| {
                let w = format!("shard_race_{i}_word");
                [
                    w.to_ascii_uppercase(),
                    w.clone(),
                    format!("Shard_Race_{i}_Word"),
                ]
            })
            .collect();
        let start = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (words, start) = (&words, &start);
                    scope.spawn(move || {
                        // each thread walks the vocabulary from its own
                        // offset, so they overlap on every string
                        let offset = t * words.len() / THREADS;
                        start.wait();
                        let mut ids = vec![Symbol::empty(); words.len()];
                        for k in 0..words.len() {
                            let i = (offset + k) % words.len();
                            ids[i] = Symbol::intern(&words[i]);
                        }
                        ids
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread[1..] {
            assert!(ids == &per_thread[0], "threads disagree on an id");
        }
        for (word, sym) in words.iter().zip(&per_thread[0]) {
            assert_eq!(sym.as_str(), word);
            assert_eq!(sym.lower().as_str(), word.to_ascii_lowercase());
            assert_eq!(sym.lower(), Symbol::intern(&word.to_ascii_lowercase()));
        }
        let distinct: std::collections::HashSet<Symbol> = per_thread[0].iter().copied().collect();
        assert_eq!(distinct.len(), words.len(), "distinct strings share an id");
        let top = per_thread[0].iter().map(|s| s.index()).max().unwrap_or(0);
        assert!(
            top as usize >= CHUNK_LEN,
            "the vocabulary stayed in one chunk"
        );
    }
}
