//! The discrete-event executor: a seeded, reproducible simulation of a
//! GPU dispatching thread blocks onto its multiprocessors.
//!
//! Each of `n_workers` workers (modelling SMs) executes one block update
//! at a time. Blocks are dispatched in schedule order to the
//! earliest-free worker; an update occupies the worker for
//! `block_cost * (1 ± jitter)` virtual time. Crucially there is **no
//! barrier between rounds** — a fast worker starts round `k+1` blocks
//! while slow workers still run round `k`, so blocks observe iterates that
//! mix epochs. A block reads the shared vector at its *start* time (all
//! writes that completed earlier are visible, later ones are not), which
//! realises exactly the bounded-shift asynchronous model of the paper's
//! Eq. (3): the shift of component `j` is however many updates its block
//! completed between this block's start and `j`'s last write.
//!
//! Determinism: everything is driven by one seeded RNG, so a (seed,
//! schedule) pair reproduces the identical update history — this is how
//! the 1000-run statistics of Tables 2/3 are generated reproducibly.

use crate::kernel::{BlockKernel, BlockScratch, UpdateFilter};
use crate::schedule::BlockSchedule;
use crate::trace::UpdateTrace;
use crate::xview::XView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Options for [`SimExecutor`].
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Number of concurrent workers (SMs). The Fermi C2070 has 14.
    pub n_workers: usize,
    /// Relative jitter of each update's duration, clamped to `[0, 0.95]`
    /// at run time (durations must stay positive). Zero makes every round
    /// effectively lock-step (no skew); the default 0.3 gives realistic
    /// overlap between rounds.
    pub jitter: f64,
    /// RNG seed for the duration jitter.
    pub seed: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { n_workers: 14, jitter: 0.3, seed: 0 }
    }
}

/// The discrete-event executor.
#[derive(Debug, Clone, Default)]
pub struct SimExecutor {
    /// Execution options.
    pub opts: SimOptions,
}

/// One list-scheduled block update: it occupies its worker over
/// `[start, finish)` in virtual time.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    start: f64,
    finish: f64,
    /// Global dispatch order; breaks ties between equal-time events.
    id: usize,
    block: usize,
    round: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    // Finish sorts before Start at equal times so a block starting exactly
    // when another finishes reads the freshest value.
    Finish = 0,
    Start = 1,
}

/// Phase 1's output: each worker's dispatches in the order it ran them.
struct DispatchPlan {
    per_worker: Vec<Vec<Dispatch>>,
    elapsed: f64,
    skipped: usize,
}

/// One replay event: the start or finish of `dispatch` on `worker`.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    kind: EventKind,
    worker: usize,
    dispatch: Dispatch,
}

impl Event {
    /// The replay order: time, then Finish before Start, then dispatch id.
    /// Times are finite and non-negative, where `total_cmp` agrees with
    /// `partial_cmp`.
    fn key_cmp(&self, other: &Event) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.kind.cmp(&other.kind))
            .then(self.dispatch.id.cmp(&other.dispatch.id))
    }
}

/// Min-heap adapter over [`Event::key_cmp`].
struct Head(Event);

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key_cmp(&self.0)
    }
}

/// W-way merge of the workers' event streams in replay order.
///
/// A worker's dispatches are list-scheduled back to back, so its stream
/// `start(0), finish(0), start(1), finish(1), …` already ascends in the
/// replay key: `start(k) < finish(k)` because durations are positive, and
/// `finish(k) <= start(k+1)` with Finish ordered first on a tie. Merging
/// sorted streams yields the sorted order of all events — the order a
/// global sort would produce — at O(log W) per event, and keys are unique
/// (one Start and one Finish per dispatch id), so that order is total.
struct EventMerge<'a> {
    streams: &'a [Vec<Dispatch>],
    /// Per worker: index of its next event (`2k` = start of dispatch
    /// `k`, `2k + 1` = its finish).
    cursor: Vec<usize>,
    heap: BinaryHeap<Head>,
}

impl<'a> EventMerge<'a> {
    fn new(streams: &'a [Vec<Dispatch>]) -> Self {
        let heap = (0..streams.len()).filter_map(|w| event_at(streams, w, 0)).map(Head).collect();
        EventMerge { streams, cursor: vec![0; streams.len()], heap }
    }
}

/// Event number `c` of worker `w`'s stream, if it has one.
fn event_at(streams: &[Vec<Dispatch>], w: usize, c: usize) -> Option<Event> {
    let dispatch = *streams[w].get(c / 2)?;
    let (time, kind) = if c.is_multiple_of(2) {
        (dispatch.start, EventKind::Start)
    } else {
        (dispatch.finish, EventKind::Finish)
    };
    Some(Event { time, kind, worker: w, dispatch })
}

impl Iterator for EventMerge<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let mut top = self.heap.peek_mut()?;
        let ev = top.0;
        let c = &mut self.cursor[ev.worker];
        *c += 1;
        match event_at(self.streams, ev.worker, *c) {
            Some(next) => *top = Head(next),
            None => {
                PeekMut::pop(top);
            }
        }
        Some(ev)
    }
}

impl SimExecutor {
    /// Creates an executor with the given options.
    pub fn new(opts: SimOptions) -> Self {
        SimExecutor { opts }
    }

    /// Runs `rounds` asynchronous global rounds of the kernel over `x`,
    /// dispatching blocks per `schedule` and committing updates per
    /// `filter`. `on_global_iteration(k, x)` fires whenever the
    /// *minimum* per-block update count reaches `k` (i.e. global iteration
    /// `k` has completed in the paper's counting convention), with the
    /// then-current — possibly mid-flight — iterate.
    pub fn run<F>(
        &self,
        kernel: &dyn BlockKernel,
        x: &mut [f64],
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
        filter: &dyn UpdateFilter,
        mut on_global_iteration: F,
    ) -> UpdateTrace
    where
        F: FnMut(usize, &[f64]),
    {
        let nb = kernel.n_blocks();
        assert_eq!(x.len(), kernel.n(), "iterate length must match kernel");
        let mut trace = UpdateTrace::new(nb);
        if nb == 0 || rounds == 0 {
            return trace;
        }
        let plan = self.list_schedule(kernel, rounds, schedule, filter);
        trace.elapsed = plan.elapsed;
        trace.skipped_updates = plan.skipped;

        // --- Phase 2: replay events in time order. ---
        // A worker has at most one update in flight (its stream alternates
        // Start/Finish), so one result slot per worker holds it.
        let mut slots: Vec<Vec<f64>> = vec![Vec::new(); plan.per_worker.len()];
        // The replay is sequential, so one scratch serves every update;
        // its capacity stabilises after the largest block's first update.
        let mut scratch = BlockScratch::new();
        let mut completed_global = 0usize;
        // Count-of-counts histogram over per-block update counts:
        // `hist[c]` blocks have completed exactly `c` updates. One Finish
        // event moves one block from bucket `c` to `c + 1`, so the
        // minimum (the global-iteration watermark) and maximum (for
        // `max_skew`) both maintain in O(1) — the minimum can only ever
        // advance when its bucket empties, and then only by one.
        let mut hist: Vec<usize> = vec![nb];
        let mut min_count = 0usize;
        let mut max_count = 0usize;

        for ev in EventMerge::new(&plan.per_worker) {
            let d = ev.dispatch;
            let out = &mut slots[ev.worker];
            match ev.kind {
                EventKind::Start => {
                    // Realised shift of every neighbour read (Eq. 3
                    // measured): own completed rounds minus neighbour's.
                    if let Some(nbrs) = kernel.neighbor_blocks(d.block) {
                        let own = trace.updates_per_block[d.block] as i64;
                        for &nb in nbrs {
                            trace
                                .staleness
                                .record(own - trace.updates_per_block[nb] as i64);
                        }
                    }
                    let (s, e) = kernel.block_range(d.block);
                    out.clear();
                    out.resize(e - s, 0.0);
                    kernel.update_block_with(d.block, &XView::Plain(&*x), out, &mut scratch);
                }
                EventKind::Finish => {
                    let (s, e) = kernel.block_range(d.block);
                    if filter.all_components_enabled(s, e, d.round) {
                        x[s..e].copy_from_slice(out);
                    } else {
                        for (k, &v) in out.iter().enumerate() {
                            if filter.component_enabled(s + k, d.round) {
                                x[s + k] = v;
                            }
                        }
                    }
                    let old = trace.updates_per_block[d.block];
                    trace.updates_per_block[d.block] = old + 1;
                    hist[old] -= 1;
                    if hist.len() == old + 1 {
                        hist.push(0);
                    }
                    hist[old + 1] += 1;
                    max_count = max_count.max(old + 1);
                    if old == min_count && hist[old] == 0 {
                        min_count += 1;
                    }
                    trace.max_skew = trace.max_skew.max(max_count - min_count);
                    while completed_global < min_count {
                        completed_global += 1;
                        on_global_iteration(completed_global, x);
                    }
                }
            }
        }
        trace
    }

    /// Phase 1: list-schedules every dispatch onto the earliest-free
    /// worker, drawing each update's jittered duration from the seeded RNG.
    ///
    /// A block's successive updates serialise (its round r+1 cannot start
    /// before its own round r finished — on the hardware they are
    /// consecutive kernels of the same stream). This is what keeps the
    /// shift function bounded, the admissibility condition (2) of the
    /// paper's §2.2; without it, surplus workers would run whole future
    /// rounds against ancient iterates.
    fn list_schedule(
        &self,
        kernel: &dyn BlockKernel,
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
        filter: &dyn UpdateFilter,
    ) -> DispatchPlan {
        let nb = kernel.n_blocks();
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let w = self.opts.n_workers.max(1);
        let jitter = self.opts.jitter.clamp(0.0, 0.95);
        let mut worker_free = vec![0.0f64; w];
        let mut block_free = vec![0.0f64; nb];
        let mut per_worker: Vec<Vec<Dispatch>> =
            (0..w).map(|_| Vec::with_capacity(nb * rounds / w + 1)).collect();
        let mut order: Vec<usize> = Vec::with_capacity(nb);
        let mut id = 0usize;
        let mut skipped = 0usize;
        for round in 0..rounds {
            schedule.order(round, nb, &mut order);
            for &block in &order {
                if !filter.block_enabled(block, round) {
                    skipped += 1;
                    continue;
                }
                // Earliest-free worker, lowest index on a tie (it idles
                // until the block itself is free, if need be).
                let mut wi = 0;
                for (i, &t) in worker_free.iter().enumerate() {
                    debug_assert!(t.is_finite(), "times are finite");
                    if t < worker_free[wi] {
                        wi = i;
                    }
                }
                let start = worker_free[wi].max(block_free[block]);
                let factor = if jitter > 0.0 {
                    1.0 + jitter * (rng.gen::<f64>() - 0.5) * 2.0
                } else {
                    1.0
                };
                let dur = kernel.block_cost(block).max(1e-12) * factor;
                let finish = start + dur;
                debug_assert!(finish > start, "an update must take virtual time");
                worker_free[wi] = finish;
                block_free[block] = finish;
                per_worker[wi].push(Dispatch { start, finish, id, block, round });
                id += 1;
            }
        }
        let elapsed = worker_free.iter().fold(0.0f64, |m, &t| m.max(t));
        DispatchPlan { per_worker, elapsed, skipped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::ConsensusKernel;
    use crate::kernel::AllowAll;
    use crate::schedule::{RandomPermutation, RoundRobin};
    use proptest::prelude::*;

    /// The replay order before the merge: every event of every worker,
    /// globally sorted on (time, Finish before Start, dispatch id).
    fn sorted_oracle(streams: &[Vec<Dispatch>]) -> Vec<(u64, EventKind, usize)> {
        let mut events = Vec::new();
        for d in streams.iter().flatten() {
            events.push((d.start, EventKind::Start, d.id));
            events.push((d.finish, EventKind::Finish, d.id));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("times are finite")
                .then((a.1 as u8).cmp(&(b.1 as u8)))
                .then(a.2.cmp(&b.2))
        });
        events.into_iter().map(|(t, kind, id)| (t.to_bits(), kind, id)).collect()
    }

    /// Skips a seeded-looking subset of dispatches (none when `0`).
    struct DropEvery(usize);

    impl UpdateFilter for DropEvery {
        fn block_enabled(&self, block: usize, round: usize) -> bool {
            self.0 == 0 || !(block * 31 + round).is_multiple_of(self.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn merged_order_matches_sort_oracle(
            workers in 1usize..20,
            jitter_draw in 0.0f64..1.0,
            n in 1usize..60,
            block_size in 1usize..9,
            rounds in 1usize..25,
            seed in 0u64..1000,
            drop in 0usize..5,
        ) {
            // A third of the cases run without jitter, where equal event
            // times, and with them every tie-break, are the rule.
            let jitter = if jitter_draw < 1.0 / 3.0 { 0.0 } else { jitter_draw };
            let kernel = ConsensusKernel { n, block_size };
            let exec = SimExecutor::new(SimOptions { n_workers: workers, jitter, seed });
            let mut sched = RandomPermutation::new(seed);
            let plan = exec.list_schedule(&kernel, rounds, &mut sched, &DropEvery(drop));
            let merged: Vec<_> = EventMerge::new(&plan.per_worker)
                .map(|e| (e.time.to_bits(), e.kind, e.dispatch.id))
                .collect();
            prop_assert_eq!(merged, sorted_oracle(&plan.per_worker));
        }
    }

    #[test]
    fn consensus_converges_under_chaos() {
        let kernel = ConsensusKernel { n: 32, block_size: 5 };
        let mut x: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let exec = SimExecutor::new(SimOptions { n_workers: 4, jitter: 0.4, seed: 9 });
        let mut sched = RandomPermutation::new(3);
        let trace = exec.run(&kernel, &mut x, 60, &mut sched, &AllowAll, |_, _| {});
        let mean = x.iter().sum::<f64>() / 32.0;
        for &v in &x {
            assert!((v - mean).abs() < 1e-6, "not converged: {v} vs {mean}");
        }
        assert_eq!(trace.global_iterations(), 60);
        assert_eq!(trace.total_updates(), 60 * kernel.n_blocks());
    }

    #[test]
    fn deterministic_replay() {
        let kernel = ConsensusKernel { n: 20, block_size: 4 };
        let run = |seed| {
            let mut x: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
            let exec = SimExecutor::new(SimOptions { n_workers: 3, jitter: 0.3, seed });
            let mut sched = RandomPermutation::new(1);
            exec.run(&kernel, &mut x, 10, &mut sched, &AllowAll, |_, _| {});
            x
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should interleave differently");
    }

    #[test]
    fn jitter_produces_skew_and_zero_jitter_does_not() {
        let kernel = ConsensusKernel { n: 64, block_size: 4 };
        let mut x = vec![1.0; 64];
        let exec = SimExecutor::new(SimOptions { n_workers: 5, jitter: 0.5, seed: 2 });
        let trace = exec.run(&kernel, &mut x, 30, &mut RoundRobin, &AllowAll, |_, _| {});
        assert!(trace.max_skew >= 1, "jittered run should overlap rounds");

        let mut x = vec![1.0; 64];
        let exec = SimExecutor::new(SimOptions { n_workers: 16, jitter: 0.0, seed: 2 });
        let trace = exec.run(&kernel, &mut x, 5, &mut RoundRobin, &AllowAll, |_, _| {});
        // equal costs + no jitter: every round finishes before the next
        // can get ahead by more than one
        assert!(trace.max_skew <= 1, "skew {}", trace.max_skew);
    }

    #[test]
    fn global_iteration_callback_counts() {
        let kernel = ConsensusKernel { n: 12, block_size: 3 };
        let mut x = vec![0.0; 12];
        let exec = SimExecutor::default();
        let mut seen = Vec::new();
        exec.run(&kernel, &mut x, 7, &mut RoundRobin, &AllowAll, |k, _| seen.push(k));
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn filter_blocks_are_skipped() {
        struct DropBlockZero;
        impl UpdateFilter for DropBlockZero {
            fn block_enabled(&self, block: usize, _round: usize) -> bool {
                block != 0
            }
        }
        let kernel = ConsensusKernel { n: 12, block_size: 3 };
        let mut x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let exec = SimExecutor::default();
        let trace = exec.run(&kernel, &mut x, 4, &mut RoundRobin, &DropBlockZero, |_, _| {});
        assert_eq!(trace.updates_per_block[0], 0);
        assert_eq!(trace.updates_per_block[1], 4);
        assert_eq!(trace.skipped_updates, 4);
        assert_eq!(trace.global_iterations(), 0, "block 0 never completes a round");
    }

    #[test]
    fn filter_components_keep_old_values() {
        struct FreezeFirst;
        impl UpdateFilter for FreezeFirst {
            fn component_enabled(&self, i: usize, _round: usize) -> bool {
                i != 0
            }
        }
        let kernel = ConsensusKernel { n: 8, block_size: 8 };
        let mut x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let exec = SimExecutor::default();
        exec.run(&kernel, &mut x, 10, &mut RoundRobin, &FreezeFirst, |_, _| {});
        assert_eq!(x[0], 0.0, "frozen component must keep its initial value");
        assert!(x[1] != 1.0, "live components must move");
    }

    #[test]
    fn empty_rounds_noop() {
        let kernel = ConsensusKernel { n: 4, block_size: 2 };
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let before = x.clone();
        let exec = SimExecutor::default();
        let trace = exec.run(&kernel, &mut x, 0, &mut RoundRobin, &AllowAll, |_, _| {});
        assert_eq!(x, before);
        assert_eq!(trace.total_updates(), 0);
    }
}
