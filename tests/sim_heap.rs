//! Peak heap of the discrete-event executor.
//!
//! A sim run keeps per-block counts, one in-flight update per worker and
//! histograms whose widths follow the realised skew, so the most heap it
//! holds at once must not depend on how many rounds it runs. A counting
//! global allocator measures that peak for runs of 10 and 1,000 rounds
//! over the same blocks and workers. Both peak at 2,752 B; a replay that
//! first lays out every dispatch of the run (40 bytes each) peaked at
//! 19 KB and 2.1 MB.
//!
//! The counts are per thread, so the test harness's own threads do not
//! move them; the executor runs on the calling thread.

use block_async_relax::gpu::kernel::AllowAll;
use block_async_relax::gpu::{BlockKernel, RandomPermutation, SimExecutor, SimOptions, XView};
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

/// A chain of blocks, each averaging its rows with the neighbouring
/// rows; it reports its neighbour blocks, so the run records staleness.
struct Chain {
    n: usize,
    block: usize,
    neighbors: Vec<Vec<usize>>,
}

impl Chain {
    fn new(n: usize, block: usize) -> Self {
        let nb = n.div_ceil(block);
        let neighbors = (0..nb)
            .map(|b| (b.saturating_sub(1)..(b + 2).min(nb)).filter(|&o| o != b).collect())
            .collect();
        Chain { n, block, neighbors }
    }
}

impl BlockKernel for Chain {
    fn n(&self) -> usize {
        self.n
    }
    fn n_blocks(&self) -> usize {
        self.neighbors.len()
    }
    fn block_range(&self, b: usize) -> (usize, usize) {
        (b * self.block, ((b + 1) * self.block).min(self.n))
    }
    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        let (s, e) = self.block_range(b);
        for (o, i) in out.iter_mut().zip(s..e) {
            let left = x.get(i.saturating_sub(1));
            let right = x.get((i + 1).min(self.n - 1));
            *o = 0.25 * (left + right) + 0.5;
        }
    }
    fn neighbor_blocks(&self, b: usize) -> Option<&[usize]> {
        Some(&self.neighbors[b])
    }
}

/// The most heap live at once during one run of `rounds` rounds, above
/// what was live before it.
fn peak_of_run(kernel: &Chain, rounds: usize) -> isize {
    let mut x = vec![0.0; kernel.n];
    let mut schedule = RandomPermutation::new(5);
    let exec = SimExecutor::new(SimOptions { n_workers: 8, jitter: 0.5, seed: 3 });
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let trace = exec.run(kernel, &mut x, rounds, &mut schedule, &AllowAll, |_, _| {});
    let peak = PEAK.with(Cell::get) - before;
    assert_eq!(trace.global_iterations(), rounds);
    assert!(trace.staleness.total() > 0);
    peak
}

#[test]
fn sim_peak_heap_does_not_grow_with_rounds() {
    let kernel = Chain::new(256, 8);
    let short = peak_of_run(&kernel, 10);
    let long = peak_of_run(&kernel, 1_000);
    assert!(
        long <= short + 1024,
        "a 1,000-round run peaked at {long} B of live heap, a 10-round run at {short} B"
    );
}
