//! Bump arenas for the front end.
//!
//! Parsing and interning are allocation-bound on the cold path: a typical
//! PHP file produces thousands of small nodes and identifier strings. The
//! two arenas here turn those into a handful of chunk allocations:
//!
//! * [`Arena<T>`] — a typed bump arena handing out [`NodeId`] indices.
//!   Chunks never reallocate, so `&T` references obtained through
//!   [`Arena::get`] stay valid while the arena is alive.
//! * [`StrArena`] — a byte bump arena for immortal strings; it backs the
//!   global symbol interner in [`intern`](crate::intern), where "immortal"
//!   is exactly the lifetime contract `Symbol::as_str` needs.

/// Index of a node inside an [`Arena<T>`].
///
/// `NodeId`s are plain `u32` indices: 4 bytes instead of a pointer, `Copy`,
/// and meaningless without the arena that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw index value.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

/// Number of elements per chunk. Chunks are allocated with exactly this
/// capacity and never grow, so element addresses are stable.
const CHUNK: usize = 256;

/// A typed bump arena: `alloc` appends, [`NodeId`] indexes, nothing is ever
/// freed individually. Allocating N nodes costs ~N/256 heap allocations
/// instead of N.
///
/// # Examples
///
/// ```
/// use wap_php::arena::Arena;
/// let mut arena = Arena::new();
/// let a = arena.alloc(10);
/// let b = arena.alloc(20);
/// assert_eq!(*arena.get(a) + *arena.get(b), 30);
/// assert_eq!(arena.len(), 2);
/// ```
pub struct Arena<T> {
    chunks: Vec<Vec<T>>,
    len: u32,
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of allocated nodes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Moves `value` into the arena and returns its id.
    pub fn alloc(&mut self, value: T) -> NodeId {
        if self.chunks.last().map(|c| c.len() == CHUNK).unwrap_or(true) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("chunk exists").push(value);
        let id = NodeId(self.len);
        self.len += 1;
        id
    }

    /// Borrows the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn get(&self, id: NodeId) -> &T {
        let i = id.0 as usize;
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Mutably borrows the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn get_mut(&mut self, id: NodeId) -> &mut T {
        let i = id.0 as usize;
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Iterates over all nodes in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> std::ops::Index<NodeId> for Arena<T> {
    type Output = T;
    fn index(&self, id: NodeId) -> &T {
        self.get(id)
    }
}

/// Minimum byte capacity of a [`StrArena`] chunk.
const STR_CHUNK: usize = 16 * 1024;

/// A byte bump arena for strings with stable addresses.
///
/// Each chunk is a `String` allocated with a fixed capacity and never grown,
/// so the heap buffer backing every returned slice is never moved or freed
/// while the arena lives. The interner keeps its `StrArena` in a
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
    fn arena_alloc_and_get() {
        let mut a = Arena::new();
        let ids: Vec<NodeId> = (0..1000).map(|i| a.alloc(i * 3)).collect();
        assert_eq!(a.len(), 1000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*a.get(*id), i * 3);
            assert_eq!(a[*id], i * 3);
        }
    }

    #[test]
    fn arena_ids_are_dense_and_ordered() {
        let mut a = Arena::new();
        let x = a.alloc("x");
        let y = a.alloc("y");
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
        assert!(x < y);
    }

    #[test]
    fn arena_get_mut() {
        let mut a = Arena::new();
        let id = a.alloc(1);
        *a.get_mut(id) += 41;
        assert_eq!(*a.get(id), 42);
    }

    #[test]
    fn arena_iter_allocation_order() {
        let mut a = Arena::new();
        for i in 0..600 {
            a.alloc(i);
        }
        let collected: Vec<i32> = a.iter().copied().collect();
        assert_eq!(collected, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn arena_chunks_do_not_move_elements() {
        // Take a reference before forcing more chunk allocations; the
        // pointer must stay valid (we compare addresses, not re-borrow).
        let mut a = Arena::new();
        let first = a.alloc(7u64);
        let addr_before = a.get(first) as *const u64 as usize;
        for i in 0..10_000 {
            a.alloc(i);
        }
        let addr_after = a.get(first) as *const u64 as usize;
        assert_eq!(addr_before, addr_after);
    }

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
