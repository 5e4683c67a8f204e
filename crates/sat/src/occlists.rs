//! Flat literal-indexed watch lists (MiniSat `OccLists`).
//!
//! The seed solver (and PR 1) kept `watches: Vec<Vec<Watcher>>` — one
//! heap allocation per literal, scattered across the allocator, with a
//! pointer chase at the top of every propagation step. This module
//! replaces that with a single flat `Vec<Watcher>` plus one
//! `(start, len, cap)` range per literal code:
//!
//! * every watch list is a contiguous segment of one allocation, so a
//!   BCP cascade that touches thousands of lists walks (mostly)
//!   contiguous memory;
//! * watch storage becomes *measurable* — [`OccLists::resident_bytes`]
//!   is exact, like the clause arena's accounting — and *compactable*:
//!   segments abandoned by growth are reclaimed by
//!   [`OccLists::compact_with_room`]
//!   the same way the arena reclaims freed clauses;
//! * deletion is **lazy**: detaching a clause marks its two watch lists
//!   dirty ([`OccLists::smudge`]) instead of running the old
//!   `detach_clause` O(len) `position()` scan, and stale watchers are
//!   filtered out in bulk by [`OccLists::clean`] the next time the list
//!   is looked up (or by [`OccLists::clean_all`] before compaction /
//!   arena GC).
//!
//! ## Growth and waste
//!
//! [`OccLists::push`] appends into the segment's spare capacity. A full
//! segment that sits at the tail of the flat vector grows in place;
//! anywhere else it relocates to the tail with doubled capacity,
//! abandoning its old slots. Abandoned slots are booked in `wasted`;
//! when they exceed [`COMPACT_WASTE_FRACTION`] of the storage at a safe
//! point, it rewrites every live segment back-to-back in literal
//! order (also restoring scan locality). The solver calls
//! [`OccLists::maybe_compact`] from its GC safe points.
//!
//! Pushing clauses one at a time is what makes this waste: a bulk load
//! relocates most lists several times, and at the end of it the vector
//! holds about twice its live watchers in spare room and abandoned
//! segments. A clause batch therefore attaches nothing while it is
//! filled. At its end [`OccLists::compact_with_room`] is told every
//! watcher the batch will push, and rewrites the storage in one
//! allocation, each list's live watchers followed by exactly the room
//! its new ones take, so attaching them relocates no list. Only the
//! level-0 propagation that follows can still move a watcher into a
//! full list; the allocation keeps [`LAYOUT_TAIL_SLACK`] of spare tail
//! room for those relocations, as every compaction does for the
//! relocations of the search.
//!
//! ## The dirty-bit discipline
//!
//! A list may contain watchers of freed clauses only while its dirty
//! bit is set. Whoever frees a clause without rebuilding the lists
//! wholesale must `smudge` both watch lists first (while the clause
//! header is still readable); `clean` drops exactly the watchers whose
//! clause the predicate declares dead. Propagation calls
//! [`OccLists::lookup_clean`] so it never walks stale entries, and
//! `clean_all` runs before arena compaction so no forwarding pointer is
//! ever requested for a freed record.

use sebmc_logic::Lit;

use crate::arena::CRef;

/// One entry of a watch list.
///
/// `cref_tag` is the clause's [`CRef`] with [`BIN_TAG`] set when the
/// clause is binary. For binary clauses `blocker` *is* the other
/// literal, so propagation decides keep/enqueue/conflict without ever
/// dereferencing the arena; for longer clauses `blocker` is a cached
/// literal whose truth lets the common already-satisfied case skip the
/// arena too.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Watcher {
    cref_tag: u32,
    pub(crate) blocker: Lit,
}

const BIN_TAG: u32 = 1 << 31;

impl Watcher {
    #[inline]
    pub(crate) fn long(cref: CRef, blocker: Lit) -> Self {
        Watcher {
            cref_tag: cref.0,
            blocker,
        }
    }

    #[inline]
    pub(crate) fn binary(cref: CRef, other: Lit) -> Self {
        Watcher {
            cref_tag: cref.0 | BIN_TAG,
            blocker: other,
        }
    }

    #[inline]
    pub(crate) fn is_binary(self) -> bool {
        self.cref_tag & BIN_TAG != 0
    }

    #[inline]
    pub(crate) fn cref(self) -> CRef {
        CRef(self.cref_tag & !BIN_TAG)
    }

    /// Filler for unused segment capacity; never read as a live entry.
    #[inline]
    fn dummy() -> Watcher {
        Watcher {
            cref_tag: 0,
            blocker: Lit::from_code(0),
        }
    }
}

/// Per-literal segment descriptor: `data[start..start + len]` is the
/// live list, `cap` slots are owned. The dirty bit lives in the top bit
/// of `cap` so the descriptor stays three words.
#[derive(Copy, Clone, Debug, Default)]
struct Range {
    start: u32,
    len: u32,
    cap_dirty: u32,
}

const DIRTY: u32 = 1 << 31;

impl Range {
    #[inline]
    fn cap(self) -> u32 {
        self.cap_dirty & !DIRTY
    }

    #[inline]
    fn is_dirty(self) -> bool {
        self.cap_dirty & DIRTY != 0
    }
}

/// Fraction of the flat storage that may be abandoned segments before
/// [`OccLists::maybe_compact`] rewrites it.
const COMPACT_WASTE_FRACTION: f64 = 0.25;
/// Initial capacity a list receives when it first relocates to the tail.
const MIN_SEGMENT_CAP: u32 = 4;
/// Spare tail room [`OccLists::compact_with_room`] allocates past the
/// laid-out segments, as a fraction of them: room for the relocations
/// that follow (at the end of a clause batch, those of its level-0
/// propagation), so that the first of them does not double the whole
/// vector.
const LAYOUT_TAIL_SLACK: f64 = 1.0 / 8.0;

/// Flat literal-indexed watch storage. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct OccLists {
    /// All segments, back to back (plus abandoned holes awaiting
    /// [`OccLists::compact_with_room`]).
    data: Vec<Watcher>,
    /// One segment descriptor per literal code.
    ranges: Vec<Range>,
    /// Literal codes whose dirty bit is set (each at most once).
    dirties: Vec<u32>,
    /// `data` slots belonging to no segment (abandoned by relocation).
    wasted: usize,
}

impl OccLists {
    pub(crate) fn new() -> Self {
        OccLists::default()
    }

    /// Registers one more literal code (two calls per fresh variable).
    pub(crate) fn push_lit(&mut self) {
        self.ranges.push(Range::default());
    }

    /// Reserves the range table for exactly `additional` more literal
    /// codes.
    pub(crate) fn reserve_codes_exact(&mut self, additional: usize) {
        self.ranges.reserve_exact(additional);
    }

    /// The live extent of `code`'s list as `(start, len)` indices into
    /// the flat storage. The caller must have cleaned the list first if
    /// it intends to dereference every entry's clause.
    #[inline]
    pub(crate) fn range(&self, code: usize) -> (usize, usize) {
        let r = self.ranges[code];
        (r.start as usize, r.len as usize)
    }

    /// The live segment `data[start..start + len]` as one mutable
    /// slice — propagation walks this directly (a fixed-length slice
    /// lets the optimiser keep the base pointer in a register, which
    /// indexed access through the growable flat vector cannot). While
    /// the borrow lives, no other list may be pushed to; propagation
    /// therefore collects moved watches in a scratch buffer and
    /// flushes them after the walk.
    #[inline]
    pub(crate) fn segment_mut(&mut self, start: usize, len: usize) -> &mut [Watcher] {
        &mut self.data[start..start + len]
    }

    /// Shrinks `code`'s list to its first `new_len` entries (the
    /// in-place compaction at the end of a propagation walk). The freed
    /// slots stay owned by the segment as spare capacity.
    #[inline]
    pub(crate) fn truncate(&mut self, code: usize, new_len: usize) {
        let r = &mut self.ranges[code];
        debug_assert!(new_len as u32 <= r.len);
        r.len = new_len as u32;
    }

    /// Appends a watcher to `code`'s list.
    ///
    /// Amortized O(1): the common case writes into spare capacity, a
    /// full tail segment grows in place, and a full interior segment
    /// relocates to the tail with doubled capacity (booking its old
    /// slots as waste). Pushing to one list never moves another, so
    /// propagation may hold `(start, len)` indices for the list it is
    /// walking while pushing moved watches elsewhere.
    pub(crate) fn push(&mut self, code: usize, w: Watcher) {
        let r = self.ranges[code];
        let (start, len, cap) = (r.start as usize, r.len as usize, r.cap() as usize);
        if len < cap {
            self.data[start + len] = w;
            self.ranges[code].len += 1;
            return;
        }
        if start + cap == self.data.len() {
            // Tail segment: grow in place.
            self.data.push(w);
            self.ranges[code].len += 1;
            self.ranges[code].cap_dirty += 1;
            return;
        }
        // Interior segment: relocate to the tail, doubling capacity.
        let new_start = self.data.len();
        let new_cap = ((cap as u32) * 2).max(MIN_SEGMENT_CAP);
        self.data.extend_from_within(start..start + len);
        self.data.push(w);
        self.data
            .resize(new_start + new_cap as usize, Watcher::dummy());
        self.wasted += cap;
        let r = &mut self.ranges[code];
        r.start = new_start as u32;
        r.len = len as u32 + 1;
        r.cap_dirty = new_cap | (r.cap_dirty & DIRTY);
    }

    /// Marks `code`'s list dirty: it may now contain watchers of freed
    /// clauses until the next [`OccLists::clean`]. Idempotent.
    pub(crate) fn smudge(&mut self, code: usize) {
        let r = &mut self.ranges[code];
        if r.cap_dirty & DIRTY == 0 {
            r.cap_dirty |= DIRTY;
            self.dirties.push(code as u32);
        }
    }

    /// Whether `code`'s list is dirty (it may then hold watchers of
    /// freed clauses until the next clean).
    pub(crate) fn is_dirty(&self, code: usize) -> bool {
        self.ranges[code].is_dirty()
    }

    /// The live watchers of `code`'s list, immutably — the read-only
    /// walk the debug-mode invariant audit uses. Entries of a *dirty*
    /// list may reference freed clauses; the caller must check
    /// [`OccLists::is_dirty`] before dereferencing.
    pub(crate) fn watchers(&self, code: usize) -> &[Watcher] {
        let r = self.ranges[code];
        &self.data[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of literal codes registered.
    pub(crate) fn num_codes(&self) -> usize {
        self.ranges.len()
    }

    /// Drops every watcher of `code`'s list whose clause `is_dead` and
    /// clears the dirty bit. The corresponding entry in `dirties` is
    /// left behind and skipped by [`OccLists::clean_all`].
    pub(crate) fn clean(&mut self, code: usize, mut is_dead: impl FnMut(Watcher) -> bool) {
        let r = self.ranges[code];
        let start = r.start as usize;
        let mut j = 0;
        for i in 0..r.len as usize {
            let w = self.data[start + i];
            if !is_dead(w) {
                self.data[start + j] = w;
                j += 1;
            }
        }
        let r = &mut self.ranges[code];
        r.len = j as u32;
        r.cap_dirty &= !DIRTY;
    }

    /// Returns `(start, len)` of `code`'s list, cleaning it first if it
    /// is dirty — the entry point propagation uses, so a walked list
    /// never contains a freed clause.
    #[inline]
    pub(crate) fn lookup_clean(
        &mut self,
        code: usize,
        is_dead: impl FnMut(Watcher) -> bool,
    ) -> (usize, usize) {
        if self.ranges[code].is_dirty() {
            self.clean(code, is_dead);
        }
        self.range(code)
    }

    /// Cleans every dirty list. Must run before arena compaction (a
    /// freed clause has no forwarding pointer to follow).
    pub(crate) fn clean_all(&mut self, mut is_dead: impl FnMut(Watcher) -> bool) {
        let dirties = std::mem::take(&mut self.dirties);
        for code in dirties {
            // A lookup may already have cleaned this list.
            if self.ranges[code as usize].is_dirty() {
                self.clean(code as usize, &mut is_dead);
            }
        }
    }

    /// Empties every list (the `simplify` wholesale-rebuild path),
    /// keeping the flat allocation for reuse.
    pub(crate) fn clear_all(&mut self) {
        self.data.clear();
        self.dirties.clear();
        self.wasted = 0;
        for r in &mut self.ranges {
            *r = Range::default();
        }
    }

    /// Visits every live watcher mutably (the arena-GC rewrite pass).
    /// Lists must be clean: call [`OccLists::clean_all`] first.
    pub(crate) fn for_each_watcher_mut(&mut self, mut f: impl FnMut(&mut Watcher)) {
        debug_assert!(self.dirties.is_empty() || !self.ranges.iter().any(|r| r.is_dirty()));
        for code in 0..self.ranges.len() {
            let r = self.ranges[code];
            let start = r.start as usize;
            for w in &mut self.data[start..start + r.len as usize] {
                f(w);
            }
        }
    }

    /// Rewrites the flat storage with every list back to back in
    /// literal order, in one allocation: reclaims abandoned slots and
    /// spare room, and restores scan locality. Every list keeps its
    /// watchers in order (a dirty list its stale ones too, and its
    /// dirty bit).
    ///
    /// `room` names, one entry per watcher, every list the caller is
    /// about to [`push`](OccLists::push) to in bulk; each list gets
    /// exactly the spare room its named pushes take, so they relocate
    /// nothing. The counts are kept in the descriptors' capacity fields
    /// while the storage is rebuilt, so no per-literal count array is
    /// allocated beside it. The allocation keeps [`LAYOUT_TAIL_SLACK`]
    /// of spare tail room for the relocations that follow.
    pub(crate) fn compact_with_room(&mut self, room: impl IntoIterator<Item = usize>) {
        for r in &mut self.ranges {
            r.cap_dirty = r.len | (r.cap_dirty & DIRTY);
        }
        for code in room {
            self.ranges[code].cap_dirty += 1;
        }
        let total: usize = self.ranges.iter().map(|r| r.cap() as usize).sum();
        let slack = (total as f64 * LAYOUT_TAIL_SLACK) as usize;
        let mut fresh: Vec<Watcher> = Vec::with_capacity(total + slack);
        for r in &mut self.ranges {
            let (start, len) = (r.start as usize, r.len as usize);
            r.start = fresh.len() as u32;
            fresh.extend_from_slice(&self.data[start..start + len]);
            fresh.resize(r.start as usize + r.cap() as usize, Watcher::dummy());
        }
        self.data = fresh;
        self.wasted = 0;
    }

    /// Runs [`OccLists::compact_with_room`], with no room asked for,
    /// when abandoned slots exceed
    /// [`COMPACT_WASTE_FRACTION`] of the storage. Called from the
    /// solver's GC safe points (after `clean_all`).
    pub(crate) fn maybe_compact(&mut self) {
        if !self.data.is_empty()
            && self.wasted as f64 >= self.data.len() as f64 * COMPACT_WASTE_FRACTION
        {
            self.compact_with_room([]);
        }
    }

    /// Exact bytes resident in the watch structures: the flat watcher
    /// storage (live + spare + abandoned slots) plus the per-literal
    /// range table. The watch-side analogue of the arena's
    /// `resident_bytes`.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Watcher>()
            + self.ranges.len() * std::mem::size_of::<Range>()
            + self.dirties.len() * std::mem::size_of::<u32>()
    }

    /// `data` slots abandoned by segment relocation (reclaimed by the
    /// next [`OccLists::compact_with_room`]).
    #[cfg(test)]
    pub(crate) fn wasted_slots(&self) -> usize {
        self.wasted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(c: u32) -> Watcher {
        Watcher::long(CRef(c), Lit::from_code(0))
    }

    fn list(o: &OccLists, code: usize) -> Vec<u32> {
        let (start, len) = o.range(code);
        o.data[start..start + len]
            .iter()
            .map(|w| w.cref().0)
            .collect()
    }

    fn fresh(lits: usize) -> OccLists {
        let mut o = OccLists::new();
        for _ in 0..lits {
            o.push_lit();
        }
        o
    }

    #[test]
    fn push_and_read_back_preserves_order() {
        let mut o = fresh(4);
        for c in 0..6 {
            o.push(1, w(c));
        }
        o.push(3, w(100));
        assert_eq!(list(&o, 1), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(list(&o, 3), vec![100]);
        assert_eq!(list(&o, 0), Vec::<u32>::new());
    }

    #[test]
    fn interleaved_pushes_relocate_but_stay_correct() {
        let mut o = fresh(6);
        // Alternate pushes so every list keeps outgrowing its segment.
        for round in 0..50u32 {
            for code in 0..6 {
                o.push(code, w(round * 10 + code as u32));
            }
        }
        for code in 0..6 {
            let got = list(&o, code);
            let expect: Vec<u32> = (0..50).map(|r| r * 10 + code as u32).collect();
            assert_eq!(got, expect, "list {code}");
        }
        assert!(o.wasted_slots() > 0, "interior growth must book waste");
    }

    #[test]
    fn truncate_keeps_capacity() {
        let mut o = fresh(2);
        for c in 0..8 {
            o.push(0, w(c));
        }
        let bytes_before = o.resident_bytes();
        o.truncate(0, 3);
        assert_eq!(list(&o, 0), vec![0, 1, 2]);
        // The spare slots stay owned: pushing again reuses them.
        o.push(0, w(9));
        assert_eq!(list(&o, 0), vec![0, 1, 2, 9]);
        assert_eq!(o.resident_bytes(), bytes_before);
    }

    #[test]
    fn smudge_clean_filters_dead_watchers() {
        let mut o = fresh(2);
        for c in 0..5 {
            o.push(0, w(c));
        }
        assert!(!o.is_dirty(0));
        o.smudge(0);
        o.smudge(0); // idempotent
        assert!(o.is_dirty(0));
        o.clean(0, |x| x.cref().0 % 2 == 0);
        assert!(!o.is_dirty(0));
        assert_eq!(list(&o, 0), vec![1, 3]);
    }

    #[test]
    fn lookup_clean_only_cleans_dirty_lists() {
        let mut o = fresh(2);
        o.push(0, w(1));
        o.push(0, w(2));
        // Not dirty: the predicate must not run.
        let (_, len) = o.lookup_clean(0, |_| panic!("clean of a non-dirty list"));
        assert_eq!(len, 2);
        o.smudge(0);
        let (_, len) = o.lookup_clean(0, |x| x.cref().0 == 1);
        assert_eq!(len, 1);
        assert_eq!(list(&o, 0), vec![2]);
    }

    #[test]
    fn clean_all_visits_every_dirty_list_once() {
        let mut o = fresh(4);
        for code in 0..4 {
            o.push(code, w(code as u32));
            o.push(code, w(10 + code as u32));
        }
        o.smudge(0);
        o.smudge(2);
        o.clean_all(|x| x.cref().0 < 10);
        assert_eq!(list(&o, 0), vec![10]);
        assert_eq!(list(&o, 1), vec![1, 11], "clean list untouched");
        assert_eq!(list(&o, 2), vec![12]);
        assert!(!o.is_dirty(0) && !o.is_dirty(2));
    }

    #[test]
    fn compact_reclaims_waste_and_preserves_lists() {
        let mut o = fresh(8);
        for round in 0..20u32 {
            for code in 0..8 {
                o.push(code, w(round * 8 + code as u32));
            }
        }
        let before: Vec<Vec<u32>> = (0..8).map(|c| list(&o, c)).collect();
        assert!(o.wasted_slots() > 0);
        let bytes_loose = o.resident_bytes();
        o.compact_with_room([]);
        assert_eq!(o.wasted_slots(), 0);
        assert!(o.resident_bytes() < bytes_loose, "compaction shrinks");
        let after: Vec<Vec<u32>> = (0..8).map(|c| list(&o, c)).collect();
        assert_eq!(before, after);
        // Lists remain usable after compaction.
        o.push(5, w(999));
        assert_eq!(*list(&o, 5).last().unwrap(), 999);
    }

    #[test]
    fn compact_with_room_is_exact_and_keeps_lists() {
        let mut o = fresh(6);
        // Interleaved pushes leave abandoned segments and spare room.
        for round in 0..9u32 {
            for code in [0, 2, 3] {
                o.push(code, w(round * 10 + code as u32));
            }
        }
        o.smudge(2);
        assert!(o.wasted_slots() > 0);
        let before: Vec<Vec<u32>> = (0..6).map(|c| list(&o, c)).collect();
        let room = [0, 1, 3, 3, 2, 4, 4, 5];
        o.compact_with_room(room);
        assert_eq!(o.wasted_slots(), 0);
        let after: Vec<Vec<u32>> = (0..6).map(|c| list(&o, c)).collect();
        assert_eq!(before, after, "every list keeps its watchers in order");
        assert!(o.is_dirty(2), "the dirty bit survives");
        assert!(!o.is_dirty(0) && !o.is_dirty(3));
        assert_eq!(o.dirties, vec![2]);
        let live: usize = before.iter().map(Vec::len).sum();
        assert_eq!(o.data.len(), live + room.len(), "live plus reserved slots");
        // Segments sit back to back in literal order.
        let mut next = 0;
        for code in 0..6 {
            assert_eq!(o.ranges[code].start as usize, next);
            next += o.ranges[code].cap() as usize;
        }
        // Filling the reserved room relocates nothing.
        let starts: Vec<u32> = o.ranges.iter().map(|r| r.start).collect();
        for (i, &code) in room.iter().enumerate() {
            o.push(code, w(1000 + i as u32));
        }
        assert_eq!(o.data.len(), live + room.len());
        assert_eq!(o.wasted_slots(), 0);
        assert_eq!(o.ranges.iter().map(|r| r.start).collect::<Vec<_>>(), starts);
        assert_eq!(list(&o, 0), [&before[0][..], &[1000]].concat());
        assert_eq!(list(&o, 1), vec![1001]);
        assert_eq!(list(&o, 2), [&before[2][..], &[1004]].concat());
        assert_eq!(list(&o, 3), [&before[3][..], &[1002, 1003]].concat());
        assert_eq!(list(&o, 4), vec![1005, 1006]);
        assert_eq!(list(&o, 5), vec![1007]);
    }

    #[test]
    fn clear_all_resets_everything() {
        let mut o = fresh(3);
        o.push(0, w(1));
        o.push(2, w(2));
        o.smudge(2);
        o.clear_all();
        for code in 0..3 {
            assert_eq!(list(&o, code), Vec::<u32>::new());
            assert!(!o.is_dirty(code));
        }
        o.push(1, w(7));
        assert_eq!(list(&o, 1), vec![7]);
    }

    #[test]
    fn binary_tag_round_trips() {
        let b = Watcher::binary(CRef(5), Lit::from_code(3));
        assert!(b.is_binary());
        assert_eq!(b.cref(), CRef(5));
        assert_eq!(b.blocker, Lit::from_code(3));
        let l = Watcher::long(CRef(5), Lit::from_code(3));
        assert!(!l.is_binary());
        assert_eq!(l.cref(), CRef(5));
    }

    #[test]
    fn resident_bytes_track_growth() {
        let mut o = fresh(2);
        let empty = o.resident_bytes();
        for c in 0..16 {
            o.push(0, w(c));
        }
        assert!(o.resident_bytes() > empty);
    }
}
