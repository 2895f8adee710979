//! A payload cannot make the scheme decoder reserve more memory than its
//! own bytes justify: a row count larger than the remaining bytes can hold
//! is `Malformed` before anything is allocated for it.
//!
//! The file's one test counts every allocation made on its thread through
//! a counting global allocator, so it lives alone in its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use routing::persist::{decode_scheme, PersistError};
use tree_routing::encode::write_varint;

thread_local! {
    /// Bytes requested on this thread so far.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// [`System`], tallying the bytes each thread asks for.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the tally is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_forged_row_count_reserves_nothing_for_its_rows() {
    // k = 2, low-memory mode, n = 2, then a first table count equal to the
    // whole payload's length, padded with zeros up to that length.
    const LEN: usize = 4096;
    let mut payload = b"DRS1".to_vec();
    for word in [2, 1, 2, LEN as u64] {
        write_varint(&mut payload, word);
    }
    payload.resize(LEN, 0);

    let before = REQUESTED.with(Cell::get);
    let decoded = decode_scheme(&payload);
    let requested = REQUESTED.with(Cell::get) - before;
    assert_eq!(decoded.err(), Some(PersistError::Malformed));
    assert!(
        requested <= 8 * LEN,
        "decoding {LEN} bytes reserved {requested} bytes"
    );
}
