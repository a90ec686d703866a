//! Execution traces: what the executor actually did — including the
//! *realised* shift function of the paper's Eq. (3).

use abr_sync::{Ordering, SyncUsize};
use parking_lot::Mutex;

/// Histogram of realised read staleness: for each block update at its own
/// round `r`, reading a neighbour block that had completed `c` updates
/// counts one observation of shift `r - c`. Shift `0` is what synchronous
/// Jacobi always sees; negative shifts are *fresher*-than-Jacobi reads
/// (the Gauss-Seidel flavour of the asynchronous iteration); positive
/// shifts are stale reads. The paper's admissibility condition (2)
/// requires the positive side to be bounded, which [`StalenessHistogram::max_shift`]
/// verifies empirically.
#[derive(Debug, Clone, Default)]
pub struct StalenessHistogram {
    /// Shift of `counts[0]`.
    lo: i64,
    /// Dense counts over the recorded range: `counts[i]` reads had shift
    /// `lo + i`. Realised shifts span a few rounds around zero, so a
    /// record is one index and one add; the range grows on either side
    /// as new extremes arrive, and both ends are always non-zero.
    counts: Vec<u64>,
}

impl StalenessHistogram {
    /// Records one read with the given shift.
    #[inline]
    pub fn record(&mut self, shift: i64) {
        self.add(shift, 1);
    }

    /// Adds `c` reads of `shift`, widening the range to cover it.
    fn add(&mut self, shift: i64, c: u64) {
        if self.counts.is_empty() {
            self.lo = shift;
        } else if shift < self.lo {
            let grow = (self.lo - shift) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lo = shift;
        }
        let i = (shift - self.lo) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += c;
    }

    /// Total recorded reads.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest observed (stalest) shift, if any reads were recorded.
    pub fn max_shift(&self) -> Option<i64> {
        (!self.counts.is_empty()).then(|| self.lo + self.counts.len() as i64 - 1)
    }

    /// Smallest observed shift (most negative = freshest).
    pub fn min_shift(&self) -> Option<i64> {
        (!self.counts.is_empty()).then_some(self.lo)
    }

    /// Mean shift.
    pub fn mean_shift(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.entries().map(|(s, c)| s as f64 * c as f64).sum::<f64>() / total as f64
    }

    /// Fraction of reads fresher than synchronous Jacobi (shift < 0).
    pub fn fraction_fresh(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let fresh: u64 = self.entries().filter(|&(s, _)| s < 0).map(|(_, c)| c).sum();
        fresh as f64 / total as f64
    }

    /// The `(shift, count)` pairs with a non-zero count, in increasing
    /// shift order.
    pub fn entries(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        let lo = self.lo;
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(move |(i, &c)| (lo + i as i64, c))
    }

    /// Folds another histogram into this one. The threaded executors let
    /// each worker record into a private histogram and merge at join, so
    /// the hot path never touches a shared map.
    pub fn merge(&mut self, other: &StalenessHistogram) {
        if let (Some(lo), Some(hi)) = (other.min_shift(), other.max_shift()) {
            // Widen once to the union, then add bucket by bucket.
            self.add(lo, 0);
            self.add(hi, 0);
            for (s, c) in other.entries() {
                self.add(s, c);
            }
        }
    }
}

/// Concurrent count-of-counts watermark tracker: the real-thread
/// executors' counterpart of the DES's skew bookkeeping (`sim.rs`).
///
/// Every processed dispatch (a committed update, or a filter-skipped one
/// — both advance a block past its round) moves one block from progress
/// bucket `c` to `c + 1`; the histogram maintains the minimum (the
/// *progress floor*, also published as a relaxed atomic so workers can
/// read it without taking the lock) and maximum in O(1), and
/// [`max_skew`](Self::max_skew) records the widest spread ever observed —
/// the empirical check of the paper's Eq. 2 staleness bound. Skips count
/// as progress on purpose: a permanently frozen block (fault injection)
/// must not pin the floor, or the persistent executor's lag gate would
/// deadlock against it.
#[derive(Debug)]
pub struct SkewTracker {
    inner: Mutex<SkewInner>,
    /// Relaxed mirror of the histogram minimum, for lock-free reads on
    /// the dispatch path.
    floor: SyncUsize,
}

#[derive(Debug)]
struct SkewInner {
    progress: Vec<usize>,
    /// `hist[c]` *live* (unfrozen) blocks have progressed exactly `c`
    /// times.
    hist: Vec<usize>,
    min_count: usize,
    max_count: usize,
    max_skew: usize,
    /// Blocks currently excluded from the histogram (a live fault froze
    /// them: their owner died and nobody may update them until the
    /// recovery handoff). Their progress is still tracked, but they do
    /// not pin the floor — the paper's surviving components keep
    /// iterating during the outage.
    frozen: Vec<bool>,
    /// Progress at the moment each currently-frozen block was frozen.
    frozen_at: Vec<usize>,
    n_live: usize,
    /// Completed `(block, frozen_at, outage_rounds, thawed)` spans.
    spans: Vec<(usize, usize, usize, bool)>,
    /// Largest realised outage (floor rounds a frozen block missed).
    max_outage: usize,
}

impl SkewInner {
    /// Removes one observation of `count` from the histogram, keeping
    /// `min_count`/`max_count` tight. No-op bookkeeping when the last
    /// live block leaves (the bounds then go stale until a thaw re-seeds
    /// them, and no reader consumes them in between).
    fn hist_remove(&mut self, count: usize) {
        self.hist[count] -= 1;
        if self.n_live == 0 {
            return;
        }
        if count == self.min_count && self.hist[count] == 0 {
            while self.min_count < self.max_count && self.hist[self.min_count] == 0 {
                self.min_count += 1;
            }
        }
        if count == self.max_count && self.hist[count] == 0 {
            while self.max_count > self.min_count && self.hist[self.max_count] == 0 {
                self.max_count -= 1;
            }
        }
    }
}

impl SkewTracker {
    /// A tracker over `n_blocks` blocks, all at progress 0.
    pub fn new(n_blocks: usize) -> Self {
        SkewTracker {
            inner: Mutex::new(SkewInner {
                progress: vec![0; n_blocks],
                hist: vec![n_blocks],
                min_count: 0,
                max_count: 0,
                max_skew: 0,
                frozen: vec![false; n_blocks],
                frozen_at: vec![0; n_blocks],
                n_live: n_blocks,
                spans: Vec::new(),
                max_outage: 0,
            }),
            floor: SyncUsize::new(0),
        }
    }

    /// Records one processed dispatch of `block` (commit or skip). A
    /// frozen block's stray dispatches (in flight when the freeze landed,
    /// or raced through a stale shard-state read) still count progress
    /// but stay outside the histogram until the thaw re-admits them.
    pub fn on_progress(&self, block: usize) {
        let new_floor;
        {
            let mut g = self.inner.lock();
            let old = g.progress[block];
            g.progress[block] = old + 1;
            if g.hist.len() == old + 1 {
                g.hist.push(0);
            }
            if g.frozen[block] {
                return;
            }
            g.hist[old] -= 1;
            g.hist[old + 1] += 1;
            if old + 1 > g.max_count {
                g.max_count = old + 1;
            }
            new_floor = if old == g.min_count && g.hist[old] == 0 {
                while g.min_count < g.max_count && g.hist[g.min_count] == 0 {
                    g.min_count += 1;
                }
                Some(g.min_count)
            } else {
                None
            };
            let skew = g.max_count - g.min_count;
            if skew > g.max_skew {
                g.max_skew = skew;
            }
        }
        if let Some(f) = new_floor {
            // sync: published *outside* the lock — under the model
            // runtime every facade op is a schedule point and must never
            // run with a lock held. Relaxed fetch_max is sound here:
            // the floor is monotone, racing publications keep the
            // largest, and a reader seeing a lagging mirror only makes
            // the lag gate *more* conservative (never admits a dispatch
            // the true floor would reject).
            self.floor.fetch_max(f, Ordering::Relaxed);
        }
    }

    /// Freezes `block`: removes it from the histogram so it no longer
    /// pins the progress floor. Called by the fault runtime when the
    /// block's owning worker dies — the surviving blocks' floor then
    /// keeps advancing, which is exactly how the realised staleness bound
    /// widens from `max_round_lag + 1` to `max_round_lag + 1 + outage`
    /// (see `abr_gpu::persistent`'s bound re-derivation).
    pub fn freeze(&self, block: usize) {
        let new_floor;
        {
            let mut g = self.inner.lock();
            if g.frozen[block] {
                return;
            }
            g.frozen[block] = true;
            g.frozen_at[block] = g.progress[block];
            g.n_live -= 1;
            let count = g.progress[block];
            let old_min = g.min_count;
            g.hist_remove(count);
            new_floor = (g.min_count > old_min && g.n_live > 0).then_some(g.min_count);
        }
        if let Some(f) = new_floor {
            // sync: same monotone-mirror publication as `on_progress` —
            // outside the lock, conservative-low for racing readers.
            self.floor.fetch_max(f, Ordering::Relaxed);
        }
    }

    /// Thaws `block` after the recovery handoff, re-admitting it to the
    /// histogram at its (stale) progress count. Returns the realised
    /// outage length in floor rounds — how far the live floor ran ahead
    /// of the frozen block — which is the exact widening of the skew
    /// bound this outage caused. The realised gap is folded into
    /// [`max_skew`](Self::max_skew): it *is* observed skew.
    pub fn thaw(&self, block: usize) -> usize {
        self.thaw_inner(block, true)
    }

    fn thaw_inner(&self, block: usize, thawed: bool) -> usize {
        // sync: Relaxed mirror read, taken *before* the lock (facade ops
        // must not run under a lock — model runtime). The mirror is what
        // the executor's lag gate runs against, so the outage must be
        // measured against it: with staggered multi-shard outages the
        // histogram min can sit *below* the mirror (an earlier thawed
        // block still catching up) while dispatch is still admitted up to
        // mirror + lag, and an outage measured only against the min would
        // under-record the widening. The mirror cannot advance mid-thaw:
        // it only rises when the histogram min does, and the min is about
        // to become this block's stale count.
        let mirror = self.floor.load(Ordering::Relaxed);
        let mut g = self.inner.lock();
        if !g.frozen[block] {
            return 0;
        }
        let count = g.progress[block];
        let outage = if g.n_live == 0 {
            mirror.saturating_sub(count)
        } else {
            mirror.max(g.min_count).saturating_sub(count)
        };
        g.frozen[block] = false;
        g.n_live += 1;
        g.hist[count] += 1;
        if g.n_live == 1 {
            g.min_count = count;
            g.max_count = count;
        } else {
            g.min_count = g.min_count.min(count);
            g.max_count = g.max_count.max(count);
        }
        let skew = g.max_count - g.min_count;
        if skew > g.max_skew {
            g.max_skew = skew;
        }
        if outage > g.max_outage {
            g.max_outage = outage;
        }
        let frozen_at = g.frozen_at[block];
        g.spans.push((block, frozen_at, outage, thawed));
        outage
        // No floor publication: the true minimum may have *dropped* to
        // the thawed block's count, and the mirror is monotone. The gate
        // then runs against a stale-high floor while the block catches
        // up, which admits dispatch only up to (old floor + lag + 1) —
        // still within the widened `lag + 1 + outage` envelope, and the
        // mirror resumes once the floor passes its old value.
    }

    /// End-of-run reconciliation: folds every still-frozen block's gap
    /// into the skew and outage accounting (a no-recovery outage is real
    /// skew even though no thaw ever happened). Call after the workers
    /// have joined, before reading [`max_skew`](Self::max_skew).
    pub fn reconcile(&self) {
        let n = self.inner.lock().frozen.len();
        for b in 0..n {
            self.thaw_inner(b, false);
        }
    }

    /// The current progress floor (minimum over blocks), relaxed.
    #[inline]
    pub fn floor(&self) -> usize {
        // sync: conservative-low racy read of a monotone mirror; see
        // the publication comment in `on_progress`.
        self.floor.load(Ordering::Relaxed)
    }

    /// The widest min-to-max spread observed so far.
    pub fn max_skew(&self) -> usize {
        self.inner.lock().max_skew
    }

    /// Largest realised outage over all freeze/thaw spans, in floor
    /// rounds. The asserted staleness contract of the persistent
    /// executor is `max_skew <= max_round_lag + 1 + max_outage`.
    pub fn max_outage(&self) -> usize {
        self.inner.lock().max_outage
    }

    /// The completed `(block, frozen_at_progress, outage_rounds, thawed)`
    /// spans, in freeze order.
    pub fn frozen_spans(&self) -> Vec<(usize, usize, usize, bool)> {
        self.inner.lock().spans.clone()
    }
}

/// Summary of one executor run.
#[derive(Debug, Clone)]
pub struct UpdateTrace {
    /// Completed updates per block.
    pub updates_per_block: Vec<usize>,
    /// Largest observed skew: at some instant, the most-updated block was
    /// this many rounds ahead of the least-updated one. Zero means the run
    /// was effectively synchronous.
    pub max_skew: usize,
    /// Total virtual time of the run (DES) or wall seconds (threaded).
    pub elapsed: f64,
    /// Number of block updates that were skipped by the filter.
    pub skipped_updates: usize,
    /// Realised read-staleness distribution (empty unless the kernel
    /// exposes its neighbour blocks; maintained by the DES and persistent
    /// executors).
    pub staleness: StalenessHistogram,
}

impl UpdateTrace {
    /// An empty trace for `n_blocks` blocks.
    pub fn new(n_blocks: usize) -> Self {
        UpdateTrace {
            updates_per_block: vec![0; n_blocks],
            max_skew: 0,
            elapsed: 0.0,
            skipped_updates: 0,
            staleness: StalenessHistogram::default(),
        }
    }

    /// Minimum completed rounds over all blocks — the number of *global*
    /// iterations in the paper's counting convention.
    pub fn global_iterations(&self) -> usize {
        self.updates_per_block.iter().copied().min().unwrap_or(0)
    }

    /// Total committed block updates.
    pub fn total_updates(&self) -> usize {
        self.updates_per_block.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_iterations_is_min() {
        let mut t = UpdateTrace::new(3);
        t.updates_per_block = vec![5, 3, 7];
        assert_eq!(t.global_iterations(), 3);
        assert_eq!(t.total_updates(), 15);
    }

    #[test]
    fn empty_trace() {
        let t = UpdateTrace::new(0);
        assert_eq!(t.global_iterations(), 0);
        assert_eq!(t.total_updates(), 0);
        assert_eq!(t.staleness.total(), 0);
        assert_eq!(t.staleness.max_shift(), None);
    }

    #[test]
    fn staleness_histogram_statistics() {
        let mut h = StalenessHistogram::default();
        h.record(0);
        h.record(0);
        h.record(-1);
        h.record(2);
        assert_eq!(h.total(), 4);
        assert_eq!(h.max_shift(), Some(2));
        assert_eq!(h.min_shift(), Some(-1));
        assert!((h.mean_shift() - 0.25).abs() < 1e-15);
        assert!((h.fraction_fresh() - 0.25).abs() < 1e-15);
        let e: Vec<_> = h.entries().collect();
        assert_eq!(e, vec![(-1, 1), (0, 2), (2, 1)]);
    }

    #[test]
    fn histograms_merge() {
        let mut a = StalenessHistogram::default();
        a.record(0);
        a.record(3);
        let mut b = StalenessHistogram::default();
        b.record(3);
        b.record(-1);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        let e: Vec<_> = a.entries().collect();
        assert_eq!(e, vec![(-1, 1), (0, 1), (3, 2)]);
    }

    #[test]
    fn staleness_histogram_records_negative_first() {
        let mut h = StalenessHistogram::default();
        h.record(-3);
        assert_eq!(h.min_shift(), Some(-3));
        assert_eq!(h.max_shift(), Some(-3));
        h.record(-3);
        h.record(1);
        let e: Vec<_> = h.entries().collect();
        assert_eq!(e, vec![(-3, 2), (1, 1)], "empty interior buckets are not entries");
        assert_eq!(h.total(), 3);
        assert!((h.fraction_fresh() - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn staleness_histogram_grows_on_both_sides() {
        let mut h = StalenessHistogram::default();
        h.record(0);
        h.record(4);
        h.record(-5);
        h.record(2);
        h.record(-5);
        assert_eq!(h.min_shift(), Some(-5));
        assert_eq!(h.max_shift(), Some(4));
        let e: Vec<_> = h.entries().collect();
        assert_eq!(e, vec![(-5, 2), (0, 1), (2, 1), (4, 1)]);
        assert!((h.mean_shift() - (-4.0 / 5.0)).abs() < 1e-15);
    }

    #[test]
    fn histograms_with_disjoint_ranges_merge() {
        let mut a = StalenessHistogram::default();
        a.record(5);
        a.record(6);
        let mut b = StalenessHistogram::default();
        b.record(-2);
        b.record(-2);
        a.merge(&b);
        assert_eq!(a.entries().collect::<Vec<_>>(), vec![(-2, 2), (5, 1), (6, 1)]);
        // Into an empty histogram, and from an empty one.
        let mut c = StalenessHistogram::default();
        c.merge(&a);
        c.merge(&StalenessHistogram::default());
        assert_eq!(c.entries().collect::<Vec<_>>(), vec![(-2, 2), (5, 1), (6, 1)]);
        // A range entirely above the other side's.
        let mut d = StalenessHistogram::default();
        d.record(9);
        d.merge(&b);
        assert_eq!(d.entries().collect::<Vec<_>>(), vec![(-2, 2), (9, 1)]);
        assert_eq!((d.min_shift(), d.max_shift()), (Some(-2), Some(9)));
    }

    #[test]
    fn skew_tracker_matches_manual_bookkeeping() {
        let t = SkewTracker::new(3);
        assert_eq!(t.floor(), 0);
        assert_eq!(t.max_skew(), 0);
        t.on_progress(0); // counts 1,0,0
        assert_eq!(t.max_skew(), 1);
        assert_eq!(t.floor(), 0);
        t.on_progress(0); // 2,0,0
        assert_eq!(t.max_skew(), 2);
        t.on_progress(1); // 2,1,0
        t.on_progress(2); // 2,1,1 -> floor advances to 1
        assert_eq!(t.floor(), 1);
        assert_eq!(t.max_skew(), 2);
        t.on_progress(1); // 2,2,1
        t.on_progress(2); // 2,2,2 -> floor 2, skew now 0 but max stays
        assert_eq!(t.floor(), 2);
        assert_eq!(t.max_skew(), 2);
    }

    #[test]
    fn skew_tracker_single_block_never_skews() {
        let t = SkewTracker::new(1);
        for _ in 0..10 {
            t.on_progress(0);
        }
        assert_eq!(t.max_skew(), 0);
        assert_eq!(t.floor(), 10);
    }

    /// A frozen block stops pinning the floor; the thaw measures the
    /// realised outage and folds it into the skew.
    #[test]
    fn freeze_releases_the_floor_and_thaw_records_the_outage() {
        let t = SkewTracker::new(3);
        // Everyone to 2.
        for _ in 0..2 {
            for b in 0..3 {
                t.on_progress(b);
            }
        }
        assert_eq!(t.floor(), 2);
        t.freeze(0);
        // The survivors run 5 more rounds; the floor follows them.
        for _ in 0..5 {
            t.on_progress(1);
            t.on_progress(2);
        }
        assert_eq!(t.floor(), 7, "a frozen block must not pin the floor");
        let outage = t.thaw(0);
        assert_eq!(outage, 5, "floor 7 minus frozen count 2");
        assert_eq!(t.max_outage(), 5);
        assert_eq!(t.max_skew(), 5, "the realised gap is observed skew");
        let spans = t.frozen_spans();
        assert_eq!(spans, vec![(0, 2, 5, true)]);
        // Catch-up: progress on the thawed block does not publish a lower
        // floor (the mirror is monotone) until it passes the old one.
        t.on_progress(0);
        assert_eq!(t.floor(), 7);
    }

    /// Progress on a frozen block (an in-flight dispatch racing the
    /// freeze) is counted but stays outside the histogram.
    #[test]
    fn frozen_block_progress_is_counted_outside_the_histogram() {
        let t = SkewTracker::new(2);
        t.on_progress(0);
        t.on_progress(1); // floor 1
        t.freeze(0);
        t.on_progress(0); // stray dispatch on the frozen block
        for _ in 0..3 {
            t.on_progress(1);
        }
        assert_eq!(t.floor(), 4);
        let outage = t.thaw(0);
        assert_eq!(outage, 2, "floor 4 minus progress 2 (the stray counted)");
    }

    /// Never-thawed blocks (the no-recovery regime) are folded in by the
    /// end-of-run reconciliation with `thawed == false`.
    #[test]
    fn reconcile_folds_unthawed_spans() {
        let t = SkewTracker::new(2);
        t.on_progress(0);
        t.on_progress(1);
        t.freeze(0);
        for _ in 0..4 {
            t.on_progress(1);
        }
        t.reconcile();
        assert_eq!(t.max_outage(), 4);
        let spans = t.frozen_spans();
        assert_eq!(spans, vec![(0, 1, 4, false)]);
        // Reconciling twice is a no-op.
        t.reconcile();
        assert_eq!(t.frozen_spans().len(), 1);
    }

    /// Freeze/thaw of every block (all workers dead) must not corrupt the
    /// bookkeeping.
    #[test]
    fn freezing_every_block_is_safe() {
        let t = SkewTracker::new(2);
        t.on_progress(0);
        t.on_progress(1);
        t.freeze(0);
        t.freeze(1);
        assert_eq!(t.floor(), 1);
        t.thaw(1);
        t.thaw(0);
        assert_eq!(t.max_outage(), 0, "no live floor ever ran ahead");
        t.on_progress(0);
        t.on_progress(1);
        assert_eq!(t.floor(), 2);
    }
}
