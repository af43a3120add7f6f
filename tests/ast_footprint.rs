//! Heap held by parsed ASTs, per byte of source. Every node sequence is a
//! `Box<[T]>` allocated at its final length, so spare `Vec` capacity or a
//! wider node shows here as more bytes per source byte.
//!
//! This binary installs its own counting allocator and holds one test, so
//! no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use wap::corpus::generate_webapps;

/// Bytes currently allocated through [`Live`].
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, keeping [`LIVE_BYTES`] up to date.
struct Live;

// SAFETY: every operation is delegated to `System` unchanged; the only
// addition is relaxed atomic arithmetic, which allocates nothing.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Live = Live;

const SCALE: f64 = 0.05;
const SEED: u64 = 42;

/// Live AST heap allowed per byte of source. Exact-size sequences measure
/// 6.65 on this corpus; growable `Vec`s measured 11.85.
const BUDGET_PER_SOURCE_BYTE: f64 = 8.0;

#[test]
fn parsed_asts_stay_within_the_heap_budget() {
    let sources: Vec<String> = generate_webapps(SCALE, SEED)
        .into_iter()
        .flat_map(|app| app.files)
        .map(|f| f.source)
        .collect();
    let source_bytes: usize = sources.iter().map(String::len).sum();
    let parse_all = |programs: &mut Vec<wap::php::Program>| {
        for src in &sources {
            programs.push(wap::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}")));
        }
    };
    let mut programs = Vec::with_capacity(sources.len());
    // a first parse interns every name and sizes the parser's scratch
    // stacks, which outlive it; only the second parse's heap is the ASTs'
    parse_all(&mut programs);
    programs.clear();
    let before = LIVE_BYTES.load(Relaxed);
    parse_all(&mut programs);
    let ast_bytes = LIVE_BYTES.load(Relaxed) - before;
    let per_byte = ast_bytes as f64 / source_bytes as f64;
    eprintln!(
        "{} files, {source_bytes} source bytes: ASTs hold {ast_bytes} heap bytes ({per_byte:.2} per source byte)",
        programs.len()
    );
    assert!(
        per_byte <= BUDGET_PER_SOURCE_BYTE,
        "ASTs hold {per_byte:.2} heap bytes per source byte, over the budget of {BUDGET_PER_SOURCE_BYTE}"
    );
}
