//! Views over the shared iterate vector.
//!
//! The two executors store the iterate differently — a plain `Vec<f64>`
//! mutated in event order (DES), or a `Vec<AtomicU64>` hammered by real
//! threads — but the numerical kernels only ever *read* components.
//! [`XView`] gives them a single read interface over both.

use abr_sync::{Ordering, SyncU64};

#[cfg(any(feature = "model", feature = "sanitize"))]
use abr_sync::hb;

/// A shared vector of `f64` values stored as atomic bit patterns, so
/// multiple threads may read and write components without locks. All
/// accesses use `Relaxed` ordering: the asynchronous iteration tolerates
/// arbitrarily stale values by design (that is the entire point of the
/// method), so no happens-before edges are needed for correctness of the
/// algorithm — only the final join synchronises.
#[derive(Debug)]
pub struct AtomicF64Vec {
    data: Vec<SyncU64>,
    /// Sanitizer classification of writes: the live iterate's component
    /// stores are exclusive per block (the in-flight flag orders
    /// hand-offs), while halo stages are declared racy (successive epoch
    /// winners may copy concurrently by design).
    #[cfg(any(feature = "model", feature = "sanitize"))]
    racy_writes: bool,
}

/// Above this length, only every [`HB_SAMPLE_STRIDE`]-th component is
/// shadow-tracked (sampled instrumentation; million-row iterates would
/// otherwise swamp the detector). Small vectors are tracked fully so the
/// protocol tests see every component.
#[cfg(any(feature = "model", feature = "sanitize"))]
const HB_SAMPLE_FULL_BELOW: usize = 1024;
#[cfg(any(feature = "model", feature = "sanitize"))]
const HB_SAMPLE_STRIDE: usize = 64;

impl AtomicF64Vec {
    /// Creates from initial values.
    pub fn from_slice(values: &[f64]) -> Self {
        let v = AtomicF64Vec {
            data: values.iter().map(|&v| SyncU64::new(v.to_bits())).collect(),
            #[cfg(any(feature = "model", feature = "sanitize"))]
            racy_writes: false,
        };
        // hb shadow: a fresh allocation may reuse addresses of cells
        // dropped earlier in the same sanitizer session.
        #[cfg(any(feature = "model", feature = "sanitize"))]
        for c in &v.data {
            hb::on_reset(hb::id_of(c));
        }
        v
    }

    /// An empty vector; fill it with [`reset_from`](Self::reset_from).
    pub fn new() -> Self {
        AtomicF64Vec {
            data: Vec::new(),
            #[cfg(any(feature = "model", feature = "sanitize"))]
            racy_writes: false,
        }
    }

    /// Declares every write to this vector racy-by-design for the
    /// happens-before sanitizer (halo stages: concurrent copies for
    /// successive epochs are the documented DMA-like behaviour). Without
    /// this, sampled writes are checked as per-block-exclusive. No-op in
    /// builds without the `model`/`sanitize` features.
    pub fn mark_racy_writes(&mut self) {
        #[cfg(any(feature = "model", feature = "sanitize"))]
        {
            self.racy_writes = true;
        }
    }

    /// Whether component `i` is shadow-tracked (see sampling constants).
    #[cfg(any(feature = "model", feature = "sanitize"))]
    #[inline]
    fn hb_sampled(&self, i: usize) -> bool {
        self.data.len() < HB_SAMPLE_FULL_BELOW || i.is_multiple_of(HB_SAMPLE_STRIDE)
    }

    /// The happens-before hook of a write to component `i` (sampled):
    /// live-iterate stores are exclusive per block — a second writer must
    /// happen-after via the in-flight hand-off; stage stores are declared
    /// racy.
    #[cfg(any(feature = "model", feature = "sanitize"))]
    #[inline]
    fn hb_write(&self, i: usize, cell: &SyncU64) {
        if self.hb_sampled(i) {
            hb::on_data_write(
                hb::id_of(cell),
                if self.racy_writes { hb::Access::WriteRacy } else { hb::Access::WriteExcl },
            );
        }
    }

    /// No shadow to update outside `model`/`sanitize` builds.
    #[cfg(not(any(feature = "model", feature = "sanitize")))]
    #[inline(always)]
    fn hb_write(&self, _i: usize, _cell: &SyncU64) {}

    /// Reloads the vector with `values`, reusing the existing storage
    /// when the length matches. This is what lets a persistent-executor
    /// workspace be reused across solves without reallocating the shared
    /// iterate.
    ///
    /// **Epoch semantics** (in the `abr_sync` model's terms): the writes
    /// go through the exclusive borrow, so there is no atomic traffic
    /// and no concurrent reader — each component's modification history
    /// is *discarded* and restarts at the new value as a fresh epoch 0.
    /// After `reset_from` returns, every reader (once it can reach the
    /// vector at all, which requires an ordinary happens-after edge such
    /// as a thread spawn) observes the reset values exactly: no read can
    /// mix pre-reset epochs into a post-reset view, because the old
    /// history no longer exists.
    pub fn reset_from(&mut self, values: &[f64]) {
        if self.data.len() == values.len() {
            for (a, &v) in self.data.iter_mut().zip(values) {
                a.set_exclusive(v.to_bits());
            }
        } else {
            self.data.clear();
            self.data.extend(values.iter().map(|&v| SyncU64::new(v.to_bits())));
            // hb shadow: same address-reuse hygiene as `from_slice`.
            #[cfg(any(feature = "model", feature = "sanitize"))]
            for c in &self.data {
                hb::on_reset(hb::id_of(c));
            }
        }
    }

    /// Copies the current state into `out` without allocating. `out`
    /// must have the same length.
    ///
    /// **Epoch semantics** (in the `abr_sync` model's terms): each
    /// component is one `Relaxed` atomic load — individually untorn, but
    /// the copy as a whole is *not* an atomic snapshot. Component `i`
    /// may deliver any epoch from the caller's coherence floor up to the
    /// latest, independently per component, so the result can mix epochs
    /// across components — the view an asynchronous observer (the
    /// paper's host-side monitor) gets by design. Call it after joining
    /// the writers (as the executors do for the final iterate) and the
    /// join edges force every component to its latest epoch, making the
    /// copy exact.
    pub fn copy_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "copy_into: length mismatch");
        self.load_range(0, out);
    }

    /// Reads components `start..start + out.len()` into `out`: one
    /// `Relaxed` load per component, as [`get`](Self::get) makes, behind
    /// one bounds check for the whole range. The same per-component epoch
    /// semantics as [`copy_into`](Self::copy_into).
    ///
    /// # Panics
    ///
    /// When the range runs past the end of the vector.
    #[inline]
    pub fn load_range(&self, start: usize, out: &mut [f64]) {
        let cells = &self.data[start..start + out.len()];
        for (o, c) in out.iter_mut().zip(cells) {
            // sync: stale iterate reads are the algorithm's contract, as
            // in `get`; a range is just many of them.
            *o = f64::from_bits(c.load(Ordering::Relaxed));
        }
    }

    /// Writes `values` to components `start..start + values.len()`: one
    /// `Relaxed` store per component, as [`set`](Self::set) makes, behind
    /// one bounds check for the whole range. Under `model`/`sanitize`
    /// every sampled component still goes through the happens-before
    /// hook `set` fires.
    ///
    /// # Panics
    ///
    /// When the range runs past the end of the vector.
    #[inline]
    pub fn store_range(&self, start: usize, values: &[f64]) {
        let cells = &self.data[start..start + values.len()];
        for (i, (c, &v)) in (start..).zip(cells.iter().zip(values)) {
            self.hb_write(i, c);
            // sync: the same publication as `set`: untorn atomicity only,
            // the in-flight flag orders block hand-offs.
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// (pointer, capacity) of the storage: what a caller reusing the
    /// vector watches to see it was not reallocated.
    pub(crate) fn storage_fingerprint(&self) -> (usize, usize) {
        (self.data.as_ptr() as usize, self.data.capacity())
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads component `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        // sync: stale iterate reads are the algorithm's contract (paper
        // Eq. 3) — the asynchronous iteration converges under any
        // bounded staleness, so no edge is needed or wanted.
        f64::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Writes component `i` (relaxed).
    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        self.hb_write(i, &self.data[i]);
        // sync: component publication needs only untorn atomicity; when
        // cross-block visibility order matters (block hand-off) the
        // in-flight flag's Release/Acquire pair provides it.
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }
}

impl Default for AtomicF64Vec {
    fn default() -> Self {
        Self::new()
    }
}

/// A device's staged view of the iterate: reads inside `[own_start,
/// own_end)` come from the live shared vector (the device's own memory),
/// reads outside come from a staged halo buffer that a
/// [`crate::halo::HaloExchange`] refreshes on its strategy's cadence.
/// This is how the AMC and DC schemes of §3.4 actually see remote data —
/// through a copy that lags the live iterate — where DK's kernels read
/// the remote memory directly.
#[derive(Clone, Copy)]
pub struct HaloView<'a> {
    live: &'a AtomicF64Vec,
    stage: &'a AtomicF64Vec,
    own_start: usize,
    own_end: usize,
}

impl<'a> HaloView<'a> {
    /// A view for the device owning rows `[own_start, own_end)`.
    pub fn new(
        live: &'a AtomicF64Vec,
        stage: &'a AtomicF64Vec,
        own_start: usize,
        own_end: usize,
    ) -> Self {
        assert_eq!(live.len(), stage.len(), "stage must mirror the live iterate");
        assert!(own_start <= own_end && own_end <= live.len(), "own range out of bounds");
        HaloView { live, stage, own_start, own_end }
    }

    /// Reads component `i`: live when owned, staged when remote.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        if i >= self.own_start && i < self.own_end {
            self.live.get(i)
        } else {
            self.stage.get(i)
        }
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// A read-only view of the iterate, over either storage.
#[derive(Clone, Copy)]
pub enum XView<'a> {
    /// Plain storage (DES executor).
    Plain(&'a [f64]),
    /// Atomic storage (threaded executor).
    Atomic(&'a AtomicF64Vec),
    /// Device-staged storage: own rows live, remote rows through a halo
    /// stage (AMC/DC multi-GPU realisation).
    Staged(HaloView<'a>),
}

impl XView<'_> {
    /// Reads component `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            XView::Plain(s) => s[i],
            XView::Atomic(a) => a.get(i),
            XView::Staged(h) => h.get(i),
        }
    }

    /// Reads components `start..start + out.len()` into `out`, bit for
    /// bit what [`get`](Self::get) returns per component: one slice copy
    /// from plain storage, one bounds check for the range from atomic
    /// storage, and per-component routing through a staged view.
    #[inline]
    pub fn load_range(&self, start: usize, out: &mut [f64]) {
        match self {
            XView::Plain(s) => out.copy_from_slice(&s[start..start + out.len()]),
            XView::Atomic(a) => a.load_range(start, out),
            XView::Staged(h) => {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = h.get(start + k);
                }
            }
        }
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        match self {
            XView::Plain(s) => s.len(),
            XView::Atomic(a) => a.len(),
            XView::Staged(h) => h.len(),
        }
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_roundtrip() {
        let v = AtomicF64Vec::from_slice(&[1.5, -2.0, 0.0]);
        assert_eq!(v.get(0), 1.5);
        v.set(0, 7.25);
        assert_eq!(v.get(0), 7.25);
        assert_eq!(v.len(), 3);
        let mut out = [0.0; 3];
        v.copy_into(&mut out);
        assert_eq!(out, [7.25, -2.0, 0.0]);
    }

    #[test]
    fn views_agree() {
        let plain = [3.0, 4.0];
        let atomic = AtomicF64Vec::from_slice(&plain);
        let vp = XView::Plain(&plain);
        let va = XView::Atomic(&atomic);
        for i in 0..2 {
            assert_eq!(vp.get(i), va.get(i));
        }
        assert_eq!(vp.len(), 2);
        assert!(!va.is_empty());
    }

    #[test]
    fn reset_reuses_storage_and_copy_into_round_trips() {
        let mut v = AtomicF64Vec::from_slice(&[1.0, 2.0, 3.0]);
        let before = v.data.as_ptr();
        v.reset_from(&[4.0, 5.0, 6.0]);
        assert_eq!(v.data.as_ptr(), before, "same-length reset must reuse storage");
        let mut out = [0.0; 3];
        v.copy_into(&mut out);
        assert_eq!(out, [4.0, 5.0, 6.0]);
        // different length rebuilds
        v.reset_from(&[9.0]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.get(0), 9.0);
    }

    #[test]
    fn staged_view_routes_own_rows_live_and_remote_rows_staged() {
        let live = AtomicF64Vec::from_slice(&[10.0, 11.0, 12.0, 13.0]);
        let stage = AtomicF64Vec::from_slice(&[0.0, 1.0, 2.0, 3.0]);
        let h = HaloView::new(&live, &stage, 1, 3);
        let v = XView::Staged(h);
        assert_eq!(v.get(0), 0.0, "remote row reads the stage");
        assert_eq!(v.get(1), 11.0, "own row reads live");
        assert_eq!(v.get(2), 12.0);
        assert_eq!(v.get(3), 3.0);
        assert_eq!(v.len(), 4);
        // Live writes to own rows are visible immediately; live writes to
        // remote rows are not (until a refresh copies them over).
        live.set(2, 99.0);
        live.set(3, 99.0);
        assert_eq!(v.get(2), 99.0);
        assert_eq!(v.get(3), 3.0);
    }

    /// Awkward bit patterns: NaN payloads of both signs, both zeros,
    /// subnormals and infinities.
    fn awkward_values() -> Vec<f64> {
        [
            0x7ff8_0000_0000_0001_u64,
            0xfff4_0000_dead_beef,
            0x8000_0000_0000_0000,
            0,
            1,
            0x8000_0000_0000_0003,
            0x7ff0_0000_0000_0000,
            0xfff0_0000_0000_0000,
            1.5f64.to_bits(),
            (-2.75f64).to_bits(),
        ]
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn range_loads_agree_with_get_bit_for_bit() {
        let vals = awkward_values();
        let v = AtomicF64Vec::from_slice(&vals);
        let n = vals.len();
        for start in 0..=n {
            for len in 0..=n - start {
                let mut out = vec![9.0; len];
                v.load_range(start, &mut out);
                let want: Vec<f64> = (start..start + len).map(|i| v.get(i)).collect();
                assert_eq!(bits(&out), bits(&want), "range {start}..{}", start + len);
                let mut via_view = vec![9.0; len];
                XView::Atomic(&v).load_range(start, &mut via_view);
                assert_eq!(bits(&via_view), bits(&want));
                XView::Plain(&vals).load_range(start, &mut via_view);
                assert_eq!(bits(&via_view), bits(&want));
            }
        }
        let mut all = vec![0.0; n];
        v.copy_into(&mut all);
        assert_eq!(bits(&all), bits(&vals));
    }

    #[test]
    fn range_stores_agree_with_set_bit_for_bit() {
        let vals = awkward_values();
        let n = vals.len();
        for start in 0..=n {
            for len in 0..=n - start {
                let ranged = AtomicF64Vec::from_slice(&vec![7.0; n]);
                let single = AtomicF64Vec::from_slice(&vec![7.0; n]);
                let src = &vals[n - len..];
                ranged.store_range(start, src);
                for (k, &x) in src.iter().enumerate() {
                    single.set(start + k, x);
                }
                let read = |v: &AtomicF64Vec| (0..n).map(|i| v.get(i)).collect::<Vec<_>>();
                assert_eq!(bits(&read(&ranged)), bits(&read(&single)), "{start}+{len}");
            }
        }
    }

    #[test]
    fn staged_range_load_routes_per_component() {
        let live = AtomicF64Vec::from_slice(&[10.0, 11.0, 12.0, 13.0]);
        let stage = AtomicF64Vec::from_slice(&[0.0, 1.0, 2.0, 3.0]);
        let v = XView::Staged(HaloView::new(&live, &stage, 1, 3));
        let mut out = [0.0; 4];
        v.load_range(0, &mut out);
        assert_eq!(out, [0.0, 11.0, 12.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn range_past_the_end_panics() {
        let v = AtomicF64Vec::from_slice(&[1.0, 2.0]);
        v.store_range(1, &[3.0, 4.0]);
    }

    #[test]
    fn nan_and_negative_zero_preserved() {
        let v = AtomicF64Vec::from_slice(&[f64::NAN, -0.0]);
        assert!(v.get(0).is_nan());
        assert!(v.get(1).is_sign_negative());
    }

    #[test]
    fn concurrent_writes_do_not_tear() {
        // Writers store one of two full-width patterns; readers must only
        // ever observe one of them (atomicity), never a mix.
        let v = std::sync::Arc::new(AtomicF64Vec::from_slice(&[1.0]));
        let a = f64::from_bits(0xAAAA_AAAA_AAAA_AAAA);
        let b = f64::from_bits(0x5555_5555_5555_5555);
        let mut handles = Vec::new();
        for pattern in [a, b] {
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    v.set(0, pattern);
                }
            }));
        }
        let v2 = v.clone();
        let reader = std::thread::spawn(move || {
            for _ in 0..10_000 {
                let bits = v2.get(0).to_bits();
                assert!(
                    bits == a.to_bits() || bits == b.to_bits() || bits == 1.0f64.to_bits(),
                    "torn read: {bits:#x}"
                );
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
    }
}
