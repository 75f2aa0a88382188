//! Interpret once, lower per scheme: the scheme-independent base trace
//! and the per-scheme hint overlay.
//!
//! A kernel's address stream does not depend on the prefetch scheme:
//! GRP's compiler hints are annotations on load and store sites plus
//! two pseudo-instructions (the loop bound of §3.3.2 and the indirect
//! prefetch of §3.3.3). So the interpreter records a kernel once, into
//! a [`BaseTrace`] — every compute batch, load and store with no hints
//! attached, and a `SetLoopBound` *marker* at the entry of every loop
//! some scheme bounds, its loop id kept in a side table so
//! [`TraceEvent`] itself is unchanged.
//!
//! A [`HintOverlay`] holds one scheme's view of the kernel: the hint
//! set per reference site, the loops whose bound it emits, and the
//! index-load sites that drive an indirect prefetch.
//! [`BaseTrace::lower`] streams the base through the overlay and yields
//! exactly the trace the scheme's hint-reading interpretation would
//! have recorded:
//!
//! * loads and stores get their site's [`HintSet`];
//! * a marker is kept when the overlay bounds its loop and dropped
//!   otherwise; compute batches on either side of a dropped marker
//!   re-coalesce by total under the same rule as
//!   [`Trace::push_compute`], including the `u32::MAX` split;
//! * before a load at an indirect site, an `IndirectPrefetch` is
//!   synthesized whenever the load's index block differs from the last
//!   one seen at that site.
//!
//! The lowering is a stream ([`Lowered`] is an [`EventStream`]), so
//! replaying or packing a scheme's trace never materializes it.

use grp_mem::Addr;

use crate::hints::HintSet;
use crate::trace::{coalesce_compute, EventStream, LoadSeq, RefId, Trace, TraceEvent};

/// The indirect-prefetch directive of one index-load site, resolved to
/// addresses: the indexed array's base and element size (§3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectSite {
    /// `&a[0]` — base of the indexed array.
    pub base: Addr,
    /// `sizeof(a[0])`.
    pub elem_size: u32,
}

/// One scheme's hints, applied to a [`BaseTrace`] by [`BaseTrace::lower`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HintOverlay {
    hints: Vec<HintSet>,
    indirect: Vec<Option<IndirectSite>>,
    bound_loops: Vec<bool>,
}

impl HintOverlay {
    /// An overlay with no hints: every site unhinted, every marker
    /// dropped, no indirect prefetches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `h` to every load and store at site `r`.
    pub fn set_hint(&mut self, r: RefId, h: HintSet) {
        let i = r.0 as usize;
        if self.hints.len() <= i {
            self.hints.resize(i + 1, HintSet::none());
        }
        self.hints[i] = h;
    }

    /// Makes the index loads at site `r` drive indirect prefetches.
    pub fn set_indirect(&mut self, r: RefId, site: IndirectSite) {
        let i = r.0 as usize;
        if self.indirect.len() <= i {
            self.indirect.resize(i + 1, None);
        }
        self.indirect[i] = Some(site);
    }

    /// Keeps the loop-bound marker of loop `loop_id`.
    pub fn keep_bound(&mut self, loop_id: u32) {
        let i = loop_id as usize;
        if self.bound_loops.len() <= i {
            self.bound_loops.resize(i + 1, false);
        }
        self.bound_loops[i] = true;
    }

    /// The hints of site `r`.
    #[inline]
    pub(crate) fn hint(&self, r: RefId) -> HintSet {
        self.hints
            .get(r.0 as usize)
            .copied()
            .unwrap_or_else(HintSet::none)
    }

    /// The indirect directive of site `r`, if any.
    #[inline]
    pub(crate) fn indirect(&self, r: RefId) -> Option<IndirectSite> {
        self.indirect.get(r.0 as usize).copied().flatten()
    }

    /// True when loop `loop_id`'s bound marker is kept.
    #[inline]
    pub(crate) fn keeps_bound(&self, loop_id: u32) -> bool {
        self.bound_loops
            .get(loop_id as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The loops whose bound marker is kept, ascending.
    pub(crate) fn bound_loops(&self) -> impl Iterator<Item = u32> + '_ {
        self.bound_loops
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
    }
}

/// A kernel's scheme-independent trace: see the module docs.
#[derive(Debug, Clone, Default)]
pub struct BaseTrace {
    trace: Trace,
    marked: Vec<bool>,
    marker_loops: Vec<u32>,
}

impl BaseTrace {
    /// An empty base that records a marker at the entry of each loop in
    /// `loops` (and of no other loop).
    pub fn marking(loops: impl IntoIterator<Item = u32>) -> Self {
        let mut marked = Vec::new();
        for l in loops {
            let i = l as usize;
            if marked.len() <= i {
                marked.resize(i + 1, false);
            }
            marked[i] = true;
        }
        Self {
            marked,
            ..Self::default()
        }
    }

    /// True when entering loop `loop_id` records a marker.
    #[inline]
    pub fn marks(&self, loop_id: u32) -> bool {
        self.marked.get(loop_id as usize).copied().unwrap_or(false)
    }

    /// Appends `n` compute instructions ([`Trace::push_compute`]).
    #[inline]
    pub fn push_compute(&mut self, n: u32) {
        self.trace.push_compute(n);
    }

    /// Appends an unhinted load and returns its load sequence number.
    #[inline]
    pub fn push_load(
        &mut self,
        addr: Addr,
        size: u8,
        ref_id: RefId,
        dep: Option<LoadSeq>,
    ) -> LoadSeq {
        self.trace
            .push_load(addr, size, ref_id, HintSet::none(), dep)
    }

    /// Appends an unhinted store.
    #[inline]
    pub fn push_store(&mut self, addr: Addr, size: u8, ref_id: RefId) {
        self.trace.push_store(addr, size, ref_id, HintSet::none());
    }

    /// Records entry to marked loop `loop_id` with `trip` iterations.
    ///
    /// # Panics
    ///
    /// Panics if the base was not built marking the loop
    /// ([`BaseTrace::marking`]).
    pub fn push_loop_marker(&mut self, loop_id: u32, trip: u32) {
        assert!(
            self.marks(loop_id),
            "loop {loop_id} is not a marker site of this base"
        );
        self.trace.push_set_loop_bound(trip);
        self.marker_loops.push(loop_id);
    }

    /// Finalizes any coalesced compute tail. Idempotent.
    pub fn finish(&mut self) {
        self.trace.finish();
    }

    /// The recorded events: markers appear as `SetLoopBound`.
    pub fn events(&self) -> &[TraceEvent] {
        self.trace.events()
    }

    /// Dynamic load count (the same under every overlay).
    pub fn loads(&self) -> u64 {
        self.trace.loads()
    }

    /// Dynamic store count (the same under every overlay).
    pub fn stores(&self) -> u64 {
        self.trace.stores()
    }

    /// Streams this base through `overlay`: see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `overlay` keeps a bound for a loop this base does not
    /// mark — that trip count was never recorded.
    pub fn lower<'a>(&'a self, overlay: &'a HintOverlay) -> Lowered<'a> {
        if let Some(l) = overlay.bound_loops().find(|&l| !self.marks(l)) {
            panic!("overlay bounds loop {l}, which this base trace does not mark");
        }
        Lowered {
            events: self.trace.events().iter(),
            markers: self.marker_loops.iter(),
            loads: self.loads(),
            stores: self.stores(),
            overlay,
            emitted: 0,
        }
    }
}

/// [`BaseTrace::lower`]: one scheme's trace, as a single-pass
/// [`EventStream`].
#[derive(Debug)]
pub struct Lowered<'a> {
    /// Base events not yet lowered.
    events: std::slice::Iter<'a, TraceEvent>,
    /// Loop ids of the markers among them.
    markers: std::slice::Iter<'a, u32>,
    loads: u64,
    stores: u64,
    overlay: &'a HintOverlay,
    emitted: u64,
}

impl Lowered<'_> {
    /// Events yielded so far — after the stream is drained, the lowered
    /// trace's event count.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Collects the stream into a finished [`Trace`].
    pub fn materialize(mut self) -> Trace {
        let mut events = Vec::with_capacity(self.events.len() + 1);
        let mut instructions = 0u64;
        self.for_each_event(|ev| {
            instructions += ev.instruction_count();
            events.push(ev);
        });
        Trace::from_raw_parts(events, self.loads(), self.stores(), instructions)
    }
}

impl EventStream for Lowered<'_> {
    fn loads(&self) -> u64 {
        self.loads
    }

    fn stores(&self) -> u64 {
        self.stores
    }

    #[inline]
    fn for_each_event<F: FnMut(TraceEvent)>(&mut self, mut f: F) {
        /// The rarely taken extra events (a flushed compute batch, a
        /// synthesized prefetch) go through one out-of-line call, so the
        /// consumer is inlined once, at the hot per-event call below.
        #[cold]
        #[inline(never)]
        fn emit_extra<F: FnMut(TraceEvent)>(f: &mut F, emitted: &mut u64, ev: TraceEvent) {
            *emitted += 1;
            f(ev);
        }

        let ov = self.overlay;
        let mut emitted = 0u64;
        // Coalesced compute not yet emitted, and the last index block
        // seen per indirect site.
        let mut pending = 0u32;
        let mut last_index_block: Vec<Option<u64>> = vec![None; ov.indirect.len()];
        let (events, markers) = (&mut self.events, &mut self.markers);
        while let Some(&ev) = events.next() {
            let out = match ev {
                TraceEvent::Compute(n) => {
                    // The common case: nothing pending and the next event
                    // cannot merge into this batch, so it is final as is.
                    // (`pending` stays 0, so nothing flushes before it.)
                    if pending == 0
                        && !matches!(
                            events.as_slice().first(),
                            Some(TraceEvent::Compute(_) | TraceEvent::SetLoopBound(_))
                        )
                    {
                        ev
                    } else {
                        if let Some(full) = coalesce_compute(&mut pending, n) {
                            emit_extra(&mut f, &mut emitted, TraceEvent::Compute(full));
                        }
                        continue;
                    }
                }
                TraceEvent::SetLoopBound(_) => {
                    let l = *markers.next().expect("one loop id per marker");
                    if !ov.keeps_bound(l) {
                        continue;
                    }
                    ev
                }
                TraceEvent::Load {
                    addr,
                    size,
                    ref_id,
                    dep,
                    ..
                } => {
                    if let Some(site) = ov.indirect(ref_id) {
                        let blk = addr.block().0;
                        let slot = &mut last_index_block[ref_id.0 as usize];
                        if *slot != Some(blk) {
                            *slot = Some(blk);
                            if pending > 0 {
                                let c = TraceEvent::Compute(std::mem::take(&mut pending));
                                emit_extra(&mut f, &mut emitted, c);
                            }
                            let prefetch = TraceEvent::IndirectPrefetch {
                                base: site.base,
                                elem_size: site.elem_size,
                                index_addr: addr,
                                ref_id,
                            };
                            emit_extra(&mut f, &mut emitted, prefetch);
                        }
                    }
                    TraceEvent::Load {
                        addr,
                        size,
                        ref_id,
                        hints: ov.hint(ref_id),
                        dep,
                    }
                }
                TraceEvent::Store {
                    addr, size, ref_id, ..
                } => TraceEvent::Store {
                    addr,
                    size,
                    ref_id,
                    hints: ov.hint(ref_id),
                },
                TraceEvent::IndirectPrefetch { .. } => ev,
            };
            if pending > 0 {
                let c = TraceEvent::Compute(std::mem::take(&mut pending));
                emit_extra(&mut f, &mut emitted, c);
            }
            emitted += 1;
            f(out);
        }
        if pending > 0 {
            emit_extra(&mut f, &mut emitted, TraceEvent::Compute(pending));
        }
        self.emitted += emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(t: &mut BaseTrace, addr: u64, r: u32) -> LoadSeq {
        t.push_load(Addr(addr), 4, RefId(r), None)
    }

    /// `base` lowered through `ov`, materialized.
    fn lowered(base: &BaseTrace, ov: &HintOverlay) -> Trace {
        base.lower(ov).materialize()
    }

    #[test]
    fn dropped_marker_merges_compute_like_push_compute() {
        let mut base = BaseTrace::marking([0]);
        base.push_compute(3);
        base.push_loop_marker(0, 10);
        base.push_compute(4);
        load(&mut base, 0x1000, 0);
        base.finish();
        let t = lowered(&base, &HintOverlay::new());
        let mut want = Trace::new();
        want.push_compute(3);
        want.push_compute(4);
        want.push_load(Addr(0x1000), 4, RefId(0), HintSet::none(), None);
        want.finish();
        assert_eq!(t.events(), want.events());
        assert_eq!(t.events()[0], TraceEvent::Compute(7));
        assert_eq!(t.instructions(), want.instructions());
    }

    #[test]
    fn dropped_marker_merge_splits_at_the_u32_boundary() {
        let mut base = BaseTrace::marking([0, 1]);
        base.push_compute(u32::MAX - 10);
        base.push_loop_marker(0, 1);
        base.push_compute(25);
        base.push_loop_marker(1, 1);
        base.push_compute(u32::MAX);
        base.finish();
        let t = lowered(&base, &HintOverlay::new());
        let mut want = Trace::new();
        want.push_compute(u32::MAX - 10);
        want.push_compute(25);
        want.push_compute(u32::MAX);
        want.finish();
        assert_eq!(t.events(), want.events());
        assert_eq!(
            t.events(),
            &[
                TraceEvent::Compute(u32::MAX),
                TraceEvent::Compute(u32::MAX),
                TraceEvent::Compute(15)
            ]
        );
        let summed: u64 = t.events().iter().map(|e| e.instruction_count()).sum();
        assert_eq!(t.instructions(), summed);
    }

    #[test]
    fn kept_marker_splits_the_batches() {
        let mut base = BaseTrace::marking([0, 1]);
        base.push_compute(3);
        base.push_loop_marker(0, 10);
        base.push_compute(4);
        base.push_loop_marker(1, 20);
        base.push_compute(5);
        base.finish();
        let mut ov = HintOverlay::new();
        ov.keep_bound(1);
        let t = lowered(&base, &ov);
        assert_eq!(
            t.events(),
            &[
                TraceEvent::Compute(7),
                TraceEvent::SetLoopBound(20),
                TraceEvent::Compute(5)
            ]
        );
        assert_eq!(t.instructions(), 13);
    }

    #[test]
    fn hints_fill_by_site_and_dependencies_survive() {
        let mut base = BaseTrace::marking([]);
        let a = load(&mut base, 0x1000, 0);
        base.push_load(Addr(0x2000), 8, RefId(1), Some(a));
        base.push_store(Addr(0x3000), 8, RefId(2));
        base.finish();
        let mut ov = HintOverlay::new();
        let h = HintSet::none().with_spatial().with_pointer();
        ov.set_hint(RefId(1), h);
        ov.set_hint(RefId(2), HintSet::none().with_spatial());
        let t = lowered(&base, &ov);
        assert_eq!(t.loads(), 2);
        assert_eq!(t.stores(), 1);
        match t.events()[1] {
            TraceEvent::Load { hints, dep, .. } => {
                assert_eq!(hints, h);
                assert_eq!(dep, Some(0));
            }
            ref e => panic!("expected a load, got {e:?}"),
        }
        assert!(matches!(t.events()[0], TraceEvent::Load { hints, .. } if hints.is_empty()));
        assert!(matches!(t.events()[2], TraceEvent::Store { hints, .. } if hints.spatial()));
    }

    #[test]
    fn indirect_prefetch_synthesized_once_per_index_block_per_site() {
        let mut base = BaseTrace::marking([]);
        // Two index sites interleaved, 4-byte indices: 64 loads per
        // site span 4 blocks each.
        for i in 0..64u64 {
            base.push_compute(2);
            load(&mut base, 0x10_000 + 4 * i, 0);
            load(&mut base, 0x20_000 + 4 * i, 1);
        }
        base.finish();
        let mut ov = HintOverlay::new();
        let site = IndirectSite {
            base: Addr(0x90_000),
            elem_size: 8,
        };
        ov.set_indirect(RefId(0), site);
        ov.set_indirect(RefId(1), site);
        let t = lowered(&base, &ov);
        let prefetches: Vec<(Addr, RefId)> = t
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => {
                    assert_eq!((base, elem_size), (site.base, site.elem_size));
                    Some((index_addr, ref_id))
                }
                _ => None,
            })
            .collect();
        assert_eq!(prefetches.len(), 8, "4 index blocks at each of 2 sites");
        assert_eq!(prefetches[0], (Addr(0x10_000), RefId(0)));
        assert_eq!(prefetches[1], (Addr(0x20_000), RefId(1)));
        // Order: compute, then the prefetch, then its index load.
        assert_eq!(t.events()[0], TraceEvent::Compute(2));
        assert!(matches!(t.events()[1], TraceEvent::IndirectPrefetch { .. }));
        assert!(matches!(
            t.events()[2],
            TraceEvent::Load {
                ref_id: RefId(0),
                ..
            }
        ));
        assert_eq!(t.instructions(), 64 * 2 + 128 + 8);
    }

    #[test]
    fn emitted_counts_lowered_events_and_stream_counts_match() {
        let mut base = BaseTrace::marking([0]);
        base.push_compute(1);
        base.push_loop_marker(0, 4);
        load(&mut base, 0x40, 0);
        base.push_compute(1);
        base.finish();
        let ov = HintOverlay::new();
        let mut s = base.lower(&ov);
        assert_eq!((s.loads(), s.stores()), (1, 0));
        let mut n = 0u64;
        s.for_each_event(|_| n += 1);
        assert_eq!(s.emitted(), n);
        s.for_each_event(|_| n += 1);
        assert_eq!(s.emitted(), n, "a drained stream yields nothing more");
        assert_eq!(n, lowered(&base, &ov).events().len() as u64);
        assert_eq!(n, 3);
    }

    #[test]
    #[should_panic(expected = "does not mark")]
    fn lowering_an_unrecorded_bound_is_refused() {
        let base = BaseTrace::marking([0]);
        let mut ov = HintOverlay::new();
        ov.keep_bound(3);
        let _ = base.lower(&ov);
    }
}
