//! Open-list ("frontier") implementations for the search cores.
//!
//! Every priority queue in the workspace speaks one vocabulary: a
//! [`Frontier`] holds `(f, g, idx)` entries and pops the minimum in
//! strict lexicographic `(f, g, idx)` order. Because entries are unique
//! (a node is only re-pushed with a strictly smaller `g`, hence smaller
//! `f`), that order is total — so **every implementation pops the exact
//! same sequence**, and a router may switch implementations without
//! changing a single committed trace. That bit-for-bit parity is what
//! lets [`BucketFrontier`] be the default while the binary heap remains
//! available as the reference.
//!
//! Two implementations:
//!
//! - [`HeapFrontier`] — the classic `BinaryHeap<Reverse<_>>`, `O(log n)`
//!   per operation. The baseline idiom.
//! - [`BucketFrontier`] — a Dial-style bucket queue: path costs are
//!   small bounded integers, so keys `f` below [`BUCKET_SPAN`] index a
//!   flat calendar of buckets popped by a monotone cursor (`O(1)`
//!   amortized). Keys at or above the span (soft-search interference
//!   penalties can reach `base_penalty << max_penalty_doublings`) spill
//!   into an overflow heap that is only consulted once the calendar is
//!   empty — every spilled key is `>=` every calendar key, so order is
//!   preserved.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of distinct `f` values the [`BucketFrontier`] calendar covers
/// before keys spill to the overflow heap.
///
/// Hard searches on the shipped cost models stay far below this (grid
/// diameter times a single-digit step cost); only soft searches paying
/// escalated rip-up penalties ever spill.
pub const BUCKET_SPAN: usize = 4096;

/// A min-priority open list over `(f, g, idx)` entries.
///
/// `f` is the A* key (`g + h`), `g` the settled path cost, `idx` the
/// node. [`Frontier::pop`] must return entries in strictly increasing
/// lexicographic `(f, g, idx)` order — implementations are
/// interchangeable bit for bit.
pub trait Frontier {
    /// Removes every entry, keeping allocations for reuse.
    fn clear(&mut self);
    /// Inserts an entry.
    fn push(&mut self, f: u64, g: u64, idx: u32);
    /// Removes and returns the minimum entry by `(f, g, idx)`.
    fn pop(&mut self) -> Option<(u64, u64, u32)>;
    /// Current number of entries (stale entries included — the search
    /// core counts them identically for every implementation).
    fn len(&self) -> usize;
    /// Whether the frontier holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which [`Frontier`] a [`SearchArena`](crate::SearchArena) searches
/// with.
///
/// The two produce bit-identical results, so this is not a router
/// knob: every router uses the [`FrontierKind::Buckets`] default, and
/// [`FrontierKind::Heap`] is the reference open list that parity tests
/// and the fuzzer check the default against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierKind {
    /// `BinaryHeap`-backed [`HeapFrontier`] (the reference baseline).
    Heap,
    /// Dial-style [`BucketFrontier`] (the fast default).
    #[default]
    Buckets,
}

/// The classic binary-heap frontier: `BinaryHeap<Reverse<(f, g, idx)>>`.
#[derive(Debug, Default)]
pub struct HeapFrontier {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl HeapFrontier {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        HeapFrontier::default()
    }
}

impl Frontier for HeapFrontier {
    #[inline]
    fn clear(&mut self) {
        self.heap.clear();
    }

    #[inline]
    fn push(&mut self, f: u64, g: u64, idx: u32) {
        self.heap.push(Reverse((f, g, idx)));
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A Dial-style bucket frontier.
///
/// Keys `f < BUCKET_SPAN` land in `buckets[f]`, a flat calendar walked
/// by a monotone cursor; each bucket holds one packed word
/// `g << 32 | idx` per entry, kept sorted descending (entries are
/// unique — a node re-pushed with a smaller `g` lands in a smaller-`f`
/// bucket), so the minimum pops off the back in `O(1)`. The packing is
/// lossless while `g < 2^32`, and comparing the words compares
/// `(g, idx)`. Keys `f >= BUCKET_SPAN` go to an overflow heap, popped
/// only when the calendar is empty. A push below the cursor rewinds it,
/// so the pop order is the global `(f, g, idx)` minimum even if a
/// caller's heuristic is not consistent.
///
/// A calendar entry's `g` must fit in 32 bits (checked in debug
/// builds). Every A* key does: `h >= 0` gives `g <= f < BUCKET_SPAN`;
/// so does the tile planner's Dijkstra, whose `g` slot holds a `u32`
/// column.
/// Such an entry may not be sent to the spill instead, because the
/// spill pops only once the calendar is empty.
#[derive(Debug)]
pub struct BucketFrontier {
    /// `buckets[f]` holds the packed `g << 32 | idx` words of the
    /// entries with that exact `f`, sorted descending (the minimum is
    /// last).
    buckets: Vec<Vec<u64>>,
    /// One bit per calendar bucket, set iff the bucket is non-empty —
    /// the cursor skips runs of empty buckets with `trailing_zeros`
    /// instead of probing them one by one.
    occ: [u64; BUCKET_SPAN / 64],
    /// Bucket indices dirtied since the last clear (sparse cleanup).
    touched: Vec<u32>,
    /// Cursor: no non-empty bucket lies below it.
    cur: usize,
    /// Live entries in the calendar.
    ringed: usize,
    /// Entries with `f >= BUCKET_SPAN`.
    spill: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl Default for BucketFrontier {
    fn default() -> Self {
        BucketFrontier::new()
    }
}

impl BucketFrontier {
    /// Creates an empty frontier; buckets are grown lazily.
    pub fn new() -> Self {
        BucketFrontier {
            buckets: Vec::new(),
            occ: [0; BUCKET_SPAN / 64],
            touched: Vec::new(),
            cur: BUCKET_SPAN,
            ringed: 0,
            spill: BinaryHeap::new(),
        }
    }
}

impl Frontier for BucketFrontier {
    fn clear(&mut self) {
        for &b in &self.touched {
            self.buckets[b as usize].clear();
        }
        self.touched.clear();
        self.occ = [0; BUCKET_SPAN / 64];
        self.spill.clear();
        self.cur = BUCKET_SPAN;
        self.ringed = 0;
    }

    fn push(&mut self, f: u64, g: u64, idx: u32) {
        if f < BUCKET_SPAN as u64 {
            let fi = f as usize;
            if fi >= self.buckets.len() {
                self.buckets.resize_with(fi + 1, Vec::new);
            }
            let bucket = &mut self.buckets[fi];
            if bucket.is_empty() {
                self.touched.push(fi as u32);
                self.occ[fi >> 6] |= 1 << (fi & 63);
            }
            debug_assert!(
                g <= u64::from(u32::MAX),
                "calendar entry g = {g} needs more than 32 bits"
            );
            let key = g << 32 | u64::from(idx);
            // Descending insert keeps the bucket minimum at the back.
            let at = bucket.partition_point(|&e| e > key);
            bucket.insert(at, key);
            if fi < self.cur {
                self.cur = fi;
            }
            self.ringed += 1;
        } else {
            self.spill.push(Reverse((f, g, idx)));
        }
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        if self.ringed == 0 {
            return self.spill.pop().map(|Reverse(e)| e);
        }
        // `ringed > 0` guarantees a set occupancy bit at or above the
        // cursor (pushes below the cursor rewind it).
        let mut w = self.cur >> 6;
        let mut bits = self.occ[w] & (u64::MAX << (self.cur & 63));
        while bits == 0 {
            w += 1;
            bits = self.occ[w];
        }
        self.cur = (w << 6) | bits.trailing_zeros() as usize;
        let bucket = &mut self.buckets[self.cur];
        let key = bucket.pop().expect("occupancy bit set implies a non-empty bucket");
        if bucket.is_empty() {
            self.occ[self.cur >> 6] &= !(1 << (self.cur & 63));
        }
        self.ringed -= 1;
        Some((self.cur as u64, key >> 32, key as u32))
    }

    #[inline]
    fn len(&self) -> usize {
        self.ringed + self.spill.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything, checking strict lexicographic order.
    fn drain(f: &mut dyn Frontier) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = f.pop() {
            if let Some(prev) = out.last() {
                assert!(*prev < e, "pop order regressed: {prev:?} then {e:?}");
            }
            out.push(e);
        }
        out
    }

    #[test]
    fn heap_and_buckets_pop_identically() {
        // A mix of duplicate f, duplicate (f, g), cursor rewinds and
        // spill-range keys, interleaved with pops.
        let entries: Vec<(u64, u64, u32)> = vec![
            (10, 4, 9),
            (10, 4, 2),
            (3, 0, 7),
            (10, 1, 5),
            (BUCKET_SPAN as u64 + 50, 9, 1),
            (3, 2, 0),
            (BUCKET_SPAN as u64, 0, 0),
            (7, 7, 7),
        ];
        let mut heap = HeapFrontier::new();
        let mut buckets = BucketFrontier::new();
        for &(f, g, i) in &entries {
            heap.push(f, g, i);
            buckets.push(f, g, i);
            assert_eq!(heap.len(), buckets.len());
        }
        // Interleave: pop two, push one *below* everything popped so far
        // is illegal for A*, but the frontier must still order globally.
        assert_eq!(heap.pop(), buckets.pop());
        assert_eq!(heap.pop(), buckets.pop());
        heap.push(1, 0, 3);
        buckets.push(1, 0, 3);
        assert_eq!(heap.pop(), Some((1, 0, 3)));
        assert_eq!(buckets.pop(), Some((1, 0, 3)));
        assert_eq!(drain(&mut heap), drain(&mut buckets));
        assert!(heap.is_empty() && buckets.is_empty());
    }

    #[test]
    fn bucket_clear_resets_sparsely() {
        let mut f = BucketFrontier::new();
        f.push(100, 0, 1);
        f.push(BUCKET_SPAN as u64 * 2, 0, 2);
        assert_eq!(f.len(), 2);
        f.clear();
        assert_eq!(f.len(), 0);
        assert_eq!(f.pop(), None);
        // Reuse after clear starts fresh.
        f.push(5, 1, 4);
        f.push(5, 0, 9);
        assert_eq!(f.pop(), Some((5, 0, 9)));
        assert_eq!(f.pop(), Some((5, 1, 4)));
    }

    #[test]
    fn spill_pops_after_calendar() {
        let mut f = BucketFrontier::new();
        f.push(BUCKET_SPAN as u64 + 1, 0, 1);
        f.push(2, 0, 2);
        assert_eq!(f.pop(), Some((2, 0, 2)));
        assert_eq!(f.pop(), Some((BUCKET_SPAN as u64 + 1, 0, 1)));
        assert_eq!(f.pop(), None);
    }
}
