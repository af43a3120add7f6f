//! A bump arena for the interner's strings.
//!
//! Interning is allocation-bound on the cold path: a typical PHP file
//! produces thousands of identifier strings. [`StrArena`] turns those into
//! a handful of chunk allocations; it backs the global symbol interner in
//! [`intern`](crate::intern), where "immortal" is exactly the lifetime
//! contract `Symbol::as_str` needs.

/// Minimum byte capacity of a [`StrArena`] chunk.
const STR_CHUNK: usize = 16 * 1024;

/// A byte bump arena for strings with stable addresses.
///
/// Each chunk is a `String` allocated with a fixed capacity and never grown,
/// so the heap buffer backing every returned slice is never moved or freed
/// while the arena lives. Each interner shard keeps its `StrArena` in a
/// process-lifetime static, which is what justifies handing out
/// `&'static str` there.
pub struct StrArena {
    chunks: Vec<String>,
}

impl StrArena {
    /// Creates an empty string arena.
    pub fn new() -> Self {
        StrArena { chunks: Vec::new() }
    }

    /// Copies `s` into the arena and returns the stable copy.
    ///
    /// The returned reference is valid for as long as the arena itself; the
    /// `'a` lifetime ties it to the arena borrow. Callers that own the arena
    /// forever (the interner) may safely extend it.
    pub fn alloc<'a>(&'a mut self, s: &str) -> &'a str {
        let fits = self
            .chunks
            .last()
            .map(|c| c.capacity() - c.len() >= s.len())
            .unwrap_or(false);
        if !fits {
            self.chunks
                .push(String::with_capacity(STR_CHUNK.max(s.len())));
        }
        let chunk = self.chunks.last_mut().expect("chunk exists");
        let start = chunk.len();
        chunk.push_str(s);
        &chunk[start..]
    }

    /// Total bytes stored.
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

impl Default for StrArena {
    fn default() -> Self {
        StrArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_arena_round_trips() {
        let mut sa = StrArena::new();
        let a = sa.alloc("hello").to_string();
        let b = sa.alloc("world").to_string();
        assert_eq!(a, "hello");
        assert_eq!(b, "world");
        assert_eq!(sa.bytes(), 10);
    }

    #[test]
    fn str_arena_oversized_string_gets_own_chunk() {
        let mut sa = StrArena::new();
        let big = "x".repeat(STR_CHUNK * 2);
        let got = sa.alloc(&big).to_string();
        assert_eq!(got.len(), STR_CHUNK * 2);
    }

    #[test]
    fn str_arena_addresses_are_stable() {
        let mut sa = StrArena::new();
        let p = sa.alloc("stable") as *const str;
        for i in 0..10_000 {
            sa.alloc(&format!("filler-{i}"));
        }
        // SAFETY: chunks are never reallocated or dropped while `sa` lives.
        let s = unsafe { &*p };
        assert_eq!(s, "stable");
    }
}
