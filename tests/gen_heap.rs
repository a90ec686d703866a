//! Peak heap of the stencil generator.
//!
//! `gen::fv_stencil` is the set-up of every large stencil solve, and the
//! CSR it returns is the only thing it has to keep. A counting global
//! allocator measures the most heap live at any point while it runs: the
//! matrix assembled straight from its descriptor, in one pass at exact
//! capacity, keeps that peak within 10% of the returned CSR's bytes. A
//! generator that builds intermediate copies (triplets, a second CSR, a
//! transpose) peaks at several times that.
//!
//! The counts are per thread, so the test harness's own threads do not
//! move them; the generator runs on the calling thread.

use block_async_relax::sparse::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed, and the most
    /// that difference has been.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Records `grown` bytes allocated and then `freed` bytes released.
fn count(grown: usize, freed: usize) {
    LIVE.with(|live| {
        let now = live.get() + grown as isize;
        PEAK.with(|peak| peak.set(peak.get().max(now)));
        live.set(now - freed as isize);
    });
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what `System` returned; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    // SAFETY: forwards to `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Both blocks live at once, as a moving realloc has them.
            count(new_size, layout.size());
        }
        p
    }

    // SAFETY: forwards to `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(0, layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn fv_stencil_peaks_within_a_tenth_of_its_csr() {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let (a, _d) = gen::fv_stencil(256, 1.0).expect("well-formed stencil");
    let peak = PEAK.with(Cell::get) - before;
    let csr = 8 * (a.row_ptr().len() + a.col_idx().len() + a.values().len());
    let ratio = peak as f64 / csr as f64;
    assert!(
        ratio <= 1.1,
        "fv_stencil(256) peaked at {peak} B of live heap, {ratio:.2}x its {csr} B CSR"
    );
}
