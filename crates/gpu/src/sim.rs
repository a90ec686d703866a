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
//!
//! A run is one pass over the dispatches. Each is list-scheduled onto the
//! earliest-free worker, and before it is, every pending event at or
//! before that worker's free time is replayed: no later dispatch can
//! produce an event that sorts below it, so the replay runs in exactly
//! the global (time, Finish before Start, dispatch id) order. DESIGN.md
//! ("The sim executor's replay") gives the argument.

use crate::kernel::{BlockKernel, BlockScratch, UpdateFilter};
use crate::schedule::BlockSchedule;
use crate::trace::{StalenessHistogram, UpdateTrace};
use crate::xview::XView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

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
#[derive(Debug, Clone, Copy, Default)]
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

/// How far the replay has got through a worker's latest dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Stage {
    /// Both of its events are replayed (or nothing was dispatched yet).
    #[default]
    Idle,
    /// Its Start waits: the block was still busy when the worker came
    /// free, so the update starts later than the worker's free time.
    Deferred,
    /// Its Start is replayed and its result waits in the worker's slot.
    Running,
}

/// One SM: its in-flight dispatch and the result slot of that update.
#[derive(Debug, Default)]
struct Worker {
    dispatch: Dispatch,
    stage: Stage,
    out: Vec<f64>,
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
    ///
    /// Every dispatch goes to the earliest-free worker (lowest index on a
    /// tie) and draws its jittered duration from the seeded RNG. A block's
    /// successive updates serialise (its round r+1 cannot start before its
    /// own round r finished — on the hardware they are consecutive kernels
    /// of the same stream). This is what keeps the shift function bounded,
    /// the admissibility condition (2) of the paper's §2.2; without it,
    /// surplus workers would run whole future rounds against ancient
    /// iterates.
    pub fn run<K, Flt, F>(
        &self,
        kernel: &K,
        x: &mut [f64],
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
        filter: &Flt,
        on_global_iteration: F,
    ) -> UpdateTrace
    where
        K: BlockKernel + ?Sized,
        Flt: UpdateFilter + ?Sized,
        F: FnMut(usize, &[f64]),
    {
        let nb = kernel.n_blocks();
        assert_eq!(x.len(), kernel.n(), "iterate length must match kernel");
        if nb == 0 || rounds == 0 {
            return UpdateTrace::new(nb);
        }
        let mut rng = StdRng::seed_from_u64(self.opts.seed);
        let jitter = self.opts.jitter.clamp(0.0, 0.95);
        let mut workers = Workers::new(self.opts.n_workers.max(1));
        let mut replay = Replay::new(kernel, filter, x, on_global_iteration);
        let mut block_free = vec![0.0f64; nb];
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
                let free = workers.queue[0].0;
                workers.replay_through(free, &mut replay);
                let start = free.max(block_free[block]);
                let factor = if jitter > 0.0 {
                    1.0 + jitter * (rng.gen::<f64>() - 0.5) * 2.0
                } else {
                    1.0
                };
                let dur = kernel.block_cost(block).max(1e-12) * factor;
                let finish = start + dur;
                debug_assert!(finish > start, "an update must take virtual time");
                block_free[block] = finish;
                workers.dispatch(Dispatch { start, finish, id, block, round }, &mut replay);
                id += 1;
            }
        }
        workers.replay_through(f64::INFINITY, &mut replay);
        let mut trace = replay.into_trace();
        trace.elapsed = workers.queue.iter().fold(0.0f64, |m, &(t, _)| m.max(t));
        trace.skipped_updates = skipped;
        trace
    }
}

/// The workers and the events of their in-flight dispatches.
struct Workers {
    /// `(free time, worker index)` in ascending order, so the front is the
    /// earliest-free worker with the lowest index winning a tie.
    queue: Vec<(f64, usize)>,
    slots: Vec<Worker>,
    /// Workers whose dispatch is [`Stage::Deferred`].
    deferred: usize,
    /// The events one [`replay_through`](Self::replay_through) sorts:
    /// `(time, kind, dispatch id, worker)`.
    events: Vec<(f64, EventKind, usize, usize)>,
}

impl Workers {
    fn new(w: usize) -> Self {
        Workers {
            queue: (0..w).map(|i| (0.0, i)).collect(),
            slots: (0..w).map(|_| Worker::default()).collect(),
            deferred: 0,
            events: Vec::with_capacity(2 * w),
        }
    }

    /// Replays, in (time, Finish before Start, dispatch id) order, every
    /// pending event at or before `t`. Called with the front worker's free
    /// time before the next dispatch, these are exactly the pending events
    /// that sort below that dispatch's own Start, since each belongs to an
    /// earlier dispatch.
    #[inline]
    fn replay_through<K, Flt, F>(&mut self, t: f64, replay: &mut Replay<'_, K, Flt, F>)
    where
        K: BlockKernel + ?Sized,
        Flt: UpdateFilter + ?Sized,
        F: FnMut(usize, &[f64]),
    {
        // Fast path: with no Start deferred and one worker alone at the
        // front, the only pending event at or before its free time is its
        // own Finish.
        let (front, wi) = self.queue[0];
        let alone = self.queue.get(1).is_none_or(|q| q.0 > front);
        if self.deferred == 0 && t == front && alone {
            let w = &mut self.slots[wi];
            if w.stage == Stage::Running {
                replay.finish(&w.dispatch, &w.out);
                w.stage = Stage::Idle;
            }
            return;
        }
        self.events.clear();
        for (i, w) in self.slots.iter().enumerate() {
            let d = &w.dispatch;
            if w.stage == Stage::Deferred && d.start <= t {
                self.events.push((d.start, EventKind::Start, d.id, i));
            }
            if w.stage != Stage::Idle && d.finish <= t {
                self.events.push((d.finish, EventKind::Finish, d.id, i));
            }
        }
        // Times are finite and non-negative, where `total_cmp` agrees with
        // `partial_cmp`; the keys are unique (one Start and one Finish per
        // dispatch id), so the order is total.
        self.events.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        });
        for &(_, kind, _, i) in &self.events {
            let w = &mut self.slots[i];
            match kind {
                EventKind::Start => {
                    replay.start(&w.dispatch, &mut w.out);
                    w.stage = Stage::Running;
                    self.deferred -= 1;
                }
                EventKind::Finish => {
                    replay.finish(&w.dispatch, &w.out);
                    w.stage = Stage::Idle;
                }
            }
        }
    }

    /// Hands `d` to the front worker, whose events are all replayed.
    /// A Start at the worker's free time sorts below every pending event
    /// and every later dispatch's, so it replays at once; a Start the
    /// block held back waits for [`replay_through`](Self::replay_through).
    #[inline]
    fn dispatch<K, Flt, F>(&mut self, d: Dispatch, replay: &mut Replay<'_, K, Flt, F>)
    where
        K: BlockKernel + ?Sized,
        Flt: UpdateFilter + ?Sized,
        F: FnMut(usize, &[f64]),
    {
        let (free, wi) = self.queue[0];
        let w = &mut self.slots[wi];
        debug_assert_eq!(w.stage, Stage::Idle, "a worker runs one update at a time");
        w.dispatch = d;
        if d.start == free {
            replay.start(&w.dispatch, &mut w.out);
            w.stage = Stage::Running;
        } else {
            w.stage = Stage::Deferred;
            self.deferred += 1;
            #[cfg(test)]
            tests::DEFERRED_STARTS.with(|c| c.set(c.get() + 1));
        }
        // Move the front worker back to its new free time's place.
        let mut i = 0;
        while let Some(&next) = self.queue.get(i + 1) {
            if next.0 > d.finish || (next.0 == d.finish && next.1 > wi) {
                break;
            }
            self.queue[i] = next;
            i += 1;
        }
        self.queue[i] = (d.finish, wi);
    }
}

/// What the replay updates: the iterate and the trace, through the
/// kernel and the filter.
struct Replay<'a, K: ?Sized, Flt: ?Sized, F> {
    kernel: &'a K,
    filter: &'a Flt,
    x: &'a mut [f64],
    on_global_iteration: F,
    trace: UpdateTrace,
    /// The replay is sequential, so one scratch serves every update; its
    /// capacity stabilises after the largest block's first update.
    scratch: BlockScratch,
    /// Realised shifts by neighbour slot: the reads of one Start count
    /// into different histograms, so they do not wait on each other's
    /// increment of the same (hot) bucket. Merged into the trace at the
    /// end of the run.
    staleness: Vec<StalenessHistogram>,
    /// Count-of-counts over per-block update counts, from the minimum up:
    /// `window[c - min_count]` blocks have completed exactly `c` updates.
    /// One Finish moves one block from bucket `c` to `c + 1`, so the
    /// minimum (the global-iteration watermark) and maximum (for
    /// `max_skew`) both maintain in O(1) — the minimum can only ever
    /// advance when its bucket empties, and then only by one. The window
    /// spans the current skew, not the run's rounds.
    window: VecDeque<usize>,
    min_count: usize,
    max_count: usize,
    completed_global: usize,
}

impl<'a, K, Flt, F> Replay<'a, K, Flt, F>
where
    K: BlockKernel + ?Sized,
    Flt: UpdateFilter + ?Sized,
    F: FnMut(usize, &[f64]),
{
    fn new(kernel: &'a K, filter: &'a Flt, x: &'a mut [f64], on_global_iteration: F) -> Self {
        let nb = kernel.n_blocks();
        Replay {
            kernel,
            filter,
            x,
            on_global_iteration,
            trace: UpdateTrace::new(nb),
            scratch: BlockScratch::new(),
            staleness: Vec::new(),
            window: VecDeque::from([nb]),
            min_count: 0,
            max_count: 0,
            completed_global: 0,
        }
    }

    /// A Start: records the realised shift of every neighbour read (Eq. 3
    /// measured: own completed rounds minus the neighbour's), then computes
    /// the update from the iterate as it stands into `out`.
    #[inline]
    fn start(&mut self, d: &Dispatch, out: &mut Vec<f64>) {
        if let Some(nbrs) = self.kernel.neighbor_blocks(d.block) {
            if self.staleness.len() < nbrs.len() {
                self.staleness.resize_with(nbrs.len(), StalenessHistogram::default);
            }
            let counts = &self.trace.updates_per_block;
            let own = counts[d.block] as i64;
            for (h, &nb) in self.staleness.iter_mut().zip(nbrs) {
                h.record(own - counts[nb] as i64);
            }
        }
        // The kernel writes every row of its block, so the slot only grows.
        let (s, e) = self.kernel.block_range(d.block);
        if out.len() < e - s {
            out.resize(e - s, 0.0);
        }
        let out = &mut out[..e - s];
        self.kernel.update_block_with(d.block, &XView::Plain(&*self.x), out, &mut self.scratch);
    }

    /// A Finish: commits `out` per the filter and advances the block's
    /// count, the skew and the global-iteration watermark.
    #[inline]
    fn finish(&mut self, d: &Dispatch, out: &[f64]) {
        let (s, e) = self.kernel.block_range(d.block);
        let out = &out[..e - s];
        if self.filter.all_components_enabled(s, e, d.round) {
            self.x[s..e].copy_from_slice(out);
        } else {
            for (k, &v) in out.iter().enumerate() {
                if self.filter.component_enabled(s + k, d.round) {
                    self.x[s + k] = v;
                }
            }
        }
        let old = self.trace.updates_per_block[d.block];
        self.trace.updates_per_block[d.block] = old + 1;
        let i = old - self.min_count;
        self.window[i] -= 1;
        if self.window.len() == i + 1 {
            self.window.push_back(0);
        }
        self.window[i + 1] += 1;
        self.max_count = self.max_count.max(old + 1);
        if i == 0 && self.window[0] == 0 {
            self.window.pop_front();
            self.min_count += 1;
        }
        self.trace.max_skew = self.trace.max_skew.max(self.max_count - self.min_count);
        while self.completed_global < self.min_count {
            self.completed_global += 1;
            (self.on_global_iteration)(self.completed_global, &*self.x);
        }
    }

    /// The trace, with the per-slot staleness folded in.
    fn into_trace(self) -> UpdateTrace {
        let mut trace = self.trace;
        for h in &self.staleness {
            trace.staleness.merge(h);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::ConsensusKernel;
    use crate::kernel::AllowAll;
    use crate::schedule::{RandomPermutation, RoundRobin};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::Mutex;

    thread_local! {
        /// Starts this thread's runs deferred because the block was still
        /// busy when its worker came free.
        pub(super) static DEFERRED_STARTS: Cell<usize> = const { Cell::new(0) };
    }

    /// One replayed event as seen from outside the executor: its kind, its
    /// block, and (Finish only) the round it commits.
    type Seen = (EventKind, usize, Option<usize>);

    /// A kernel and filter in one that logs every event the replay
    /// performs: a Start is the update call, a Finish the commit's
    /// `all_components_enabled` call. It drops a fixed subset of
    /// dispatches (none when `drop` is 0).
    struct Recorder {
        n: usize,
        block_size: usize,
        drop: usize,
        log: Mutex<Vec<Seen>>,
    }

    impl BlockKernel for Recorder {
        fn n(&self) -> usize {
            self.n
        }
        fn n_blocks(&self) -> usize {
            self.n.div_ceil(self.block_size)
        }
        fn block_range(&self, b: usize) -> (usize, usize) {
            let s = b * self.block_size;
            (s, (s + self.block_size).min(self.n))
        }
        fn update_block(&self, b: usize, _x: &XView<'_>, out: &mut [f64]) {
            self.log.lock().unwrap().push((EventKind::Start, b, None));
            out.fill(b as f64);
        }
    }

    impl UpdateFilter for Recorder {
        fn block_enabled(&self, block: usize, round: usize) -> bool {
            self.drop == 0 || !(block * 31 + round).is_multiple_of(self.drop)
        }
        fn all_components_enabled(&self, start: usize, _end: usize, round: usize) -> bool {
            let block = start / self.block_size;
            self.log.lock().unwrap().push((EventKind::Finish, block, Some(round)));
            true
        }
    }

    /// The replay order of a list scheduler followed by a global sort:
    /// every dispatch goes to the earliest-free worker (lowest index on a
    /// tie) and starts once its block is free too, then all Start and
    /// Finish events are sorted on (time, Finish before Start, dispatch id).
    fn reference_order(
        rec: &Recorder,
        opts: &SimOptions,
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
    ) -> Vec<Seen> {
        let nb = rec.n_blocks();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let jitter = opts.jitter.clamp(0.0, 0.95);
        let mut worker_free = vec![0.0f64; opts.n_workers.max(1)];
        let mut block_free = vec![0.0f64; nb];
        let mut events = Vec::new();
        let mut order = Vec::new();
        let mut id = 0usize;
        for round in 0..rounds {
            schedule.order(round, nb, &mut order);
            for &block in &order {
                if !rec.block_enabled(block, round) {
                    continue;
                }
                let wi = (0..worker_free.len())
                    .fold(0, |m, i| if worker_free[i] < worker_free[m] { i } else { m });
                let start = worker_free[wi].max(block_free[block]);
                let factor = if jitter > 0.0 {
                    1.0 + jitter * (rng.gen::<f64>() - 0.5) * 2.0
                } else {
                    1.0
                };
                let finish = start + rec.block_cost(block).max(1e-12) * factor;
                worker_free[wi] = finish;
                block_free[block] = finish;
                events.push((start, EventKind::Start, id, block, None));
                events.push((finish, EventKind::Finish, id, block, Some(round)));
                id += 1;
            }
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("times are finite").then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        });
        events.into_iter().map(|(_, kind, _, block, round)| (kind, block, round)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The one-pass replay performs the reference order event for
        /// event. Run by `one_pass_replay_matches_the_reference_order`,
        /// which also checks that the cases deferred some Start.
        fn one_pass_replay_cases(
            workers in 1usize..21,
            jitter_draw in 0.0f64..1.0,
            n in 1usize..60,
            block_size in 1usize..9,
            rounds in 1usize..25,
            seed in 0u64..1000,
            drop in 0usize..5,
        ) {
            // A third of the cases run without jitter, where equal event
            // times, and with them every tie-break, are the rule. Small
            // `n` over large blocks leaves fewer blocks than workers, so
            // workers come free before their block does.
            let jitter = if jitter_draw < 1.0 / 3.0 { 0.0 } else { jitter_draw };
            let rec = Recorder { n, block_size, drop, log: Mutex::new(Vec::new()) };
            let opts = SimOptions { n_workers: workers, jitter, seed };
            let mut x = vec![0.0; n];
            let mut sched = RandomPermutation::new(seed);
            SimExecutor::new(opts.clone()).run(&rec, &mut x, rounds, &mut sched, &rec, |_, _| {});
            let seen = std::mem::take(&mut *rec.log.lock().unwrap());
            let mut sched = RandomPermutation::new(seed);
            prop_assert_eq!(seen, reference_order(&rec, &opts, rounds, &mut sched));
        }
    }

    #[test]
    fn one_pass_replay_matches_the_reference_order() {
        DEFERRED_STARTS.with(|c| c.set(0));
        one_pass_replay_cases();
        let deferred = DEFERRED_STARTS.with(Cell::get);
        assert!(deferred > 0, "no case deferred a Start, so that path went unchecked");
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
