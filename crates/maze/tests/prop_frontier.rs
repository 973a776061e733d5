//! Property tests pinning the frontier-equivalence contract: under any
//! interleaving of pushes and pops — duplicate entries, decreasing
//! keys after pops (cursor rewind), calendar/spill crossings at
//! [`BUCKET_SPAN`] — [`BucketFrontier`] pops exactly the sequence
//! [`HeapFrontier`] pops. The A* loop relies on this for bit-identical
//! results across [`FrontierKind`]s.

use route_maze::{BucketFrontier, Frontier, FrontierKind, HeapFrontier, BUCKET_SPAN};

/// Deterministic SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

fn lockstep(rng: &mut Rng, ops: usize, f_span: u64) {
    let mut heap = HeapFrontier::new();
    let mut buckets = BucketFrontier::new();
    for op in 0..ops {
        if rng.below(3) == 0 {
            assert_eq!(buckets.pop(), heap.pop(), "pop {op} diverged");
        } else {
            let f = rng.below(f_span);
            let g = rng.below(64);
            let idx = rng.below(1 << 20) as u32;
            heap.push(f, g, idx);
            buckets.push(f, g, idx);
        }
        assert_eq!(buckets.len(), heap.len(), "len after op {op}");
        assert_eq!(buckets.is_empty(), heap.is_empty());
    }
    while !heap.is_empty() {
        assert_eq!(buckets.pop(), heap.pop(), "drain diverged");
    }
    assert_eq!(buckets.pop(), None);
}

#[test]
fn random_interleavings_pop_identically_within_the_calendar() {
    for seed in 0..16 {
        lockstep(&mut Rng(seed), 800, BUCKET_SPAN as u64 / 2);
    }
}

#[test]
fn random_interleavings_pop_identically_across_the_spill_boundary() {
    // Half the keys land in the overflow heap (f >= BUCKET_SPAN).
    for seed in 100..112 {
        lockstep(&mut Rng(seed), 800, BUCKET_SPAN as u64 * 2);
    }
}

#[test]
fn duplicate_entries_drain_identically() {
    let mut heap = HeapFrontier::new();
    let mut buckets = BucketFrontier::new();
    for _ in 0..3 {
        for (f, g, idx) in [(5, 1, 7), (5, 1, 7), (5, 0, 9), (0, 0, 0)] {
            heap.push(f, g, idx);
            buckets.push(f, g, idx);
        }
    }
    while !heap.is_empty() {
        assert_eq!(buckets.pop(), heap.pop());
    }
    assert!(buckets.is_empty());
}

#[test]
fn cursor_rewinds_when_smaller_keys_arrive_after_pops() {
    let mut heap = HeapFrontier::new();
    let mut buckets = BucketFrontier::new();
    // Drive the bucket cursor deep into the calendar, then push below it.
    for f in [100u64, 200, 300] {
        heap.push(f, 0, f as u32);
        buckets.push(f, 0, f as u32);
    }
    assert_eq!(buckets.pop(), heap.pop());
    assert_eq!(buckets.pop(), heap.pop()); // cursor now at 200's bucket
    for f in [3u64, 150, 250] {
        heap.push(f, 0, f as u32);
        buckets.push(f, 0, f as u32);
    }
    let mut order = Vec::new();
    while let Some(e) = heap.pop() {
        assert_eq!(buckets.pop(), Some(e));
        order.push(e.0);
    }
    assert_eq!(order, vec![3, 150, 250, 300]);
}

#[test]
fn clear_resets_both_impls_to_the_same_state() {
    let mut rng = Rng(0xDECAF);
    let mut heap = HeapFrontier::new();
    let mut buckets = BucketFrontier::new();
    for round in 0..4 {
        for _ in 0..50 {
            let (f, g, idx) =
                (rng.below(BUCKET_SPAN as u64 * 2), rng.below(8), rng.below(100) as u32);
            heap.push(f, g, idx);
            buckets.push(f, g, idx);
        }
        let _ = heap.pop();
        let _ = buckets.pop();
        heap.clear();
        buckets.clear();
        assert!(heap.is_empty() && buckets.is_empty(), "round {round}");
        // A cleared frontier behaves like a fresh one.
        heap.push(round, 0, 1);
        buckets.push(round, 0, 1);
        assert_eq!(buckets.pop(), heap.pop());
    }
}

#[test]
fn buckets_are_the_default_kind() {
    assert_eq!(FrontierKind::default(), FrontierKind::Buckets);
}

#[test]
fn packed_keys_pop_identically_at_their_boundaries() {
    // The calendar packs `(g, idx)` into one word. Drive it where the
    // packing could break: `g == f`, `g` up to `BUCKET_SPAN - 1`, `idx`
    // near `u32::MAX`, and keys straddling `BUCKET_SPAN` into the spill.
    let span = BUCKET_SPAN as u64;
    let mut rng = Rng(0xB0DA);
    let mut heap = HeapFrontier::new();
    let mut buckets = BucketFrontier::new();
    let mut push = |f: u64, g: u64, idx: u32| {
        heap.push(f, g, idx);
        buckets.push(f, g, idx);
        assert_eq!(buckets.len(), heap.len());
    };
    for (f, g, idx) in [
        (span - 1, span - 1, u32::MAX),
        (span - 1, span - 1, u32::MAX - 1),
        (span - 1, span - 2, u32::MAX),
        (span - 1, 0, 0),
        (span, span, u32::MAX),
        (span, span - 1, u32::MAX),
        (0, 0, u32::MAX),
        (0, 0, 0),
    ] {
        push(f, g, idx);
    }
    for _ in 0..3000 {
        let f = span - 48 + rng.below(96);
        let g = match rng.below(3) {
            0 => f,
            1 => f.min(span - 1) - rng.below(4),
            _ => rng.below(span),
        };
        let idx =
            if rng.below(2) == 0 { u32::MAX - rng.below(16) as u32 } else { rng.below(16) as u32 };
        push(f, g, idx);
    }
    let mut popped = 0;
    while let Some(e) = heap.pop() {
        assert_eq!(buckets.pop(), Some(e), "pop {popped} diverged");
        popped += 1;
        // Interleave re-pushes below the cursor and into the spill.
        if popped % 7 == 0 {
            let f = e.0.saturating_sub(rng.below(8));
            heap.push(f, f, u32::MAX - popped);
            buckets.push(f, f, u32::MAX - popped);
        }
    }
    assert_eq!(buckets.pop(), None);
    assert!(buckets.is_empty());
}
