//! Property-style tests of the routing database's core invariant: the
//! grid occupancy is exactly the union of pins and live traces, no
//! matter how commits and rip-ups interleave; of its undo log: a
//! rewind restores exactly what a clone taken at the checkpoint holds;
//! and of its memoized connectivity walks: they answer what a fresh
//! walk would.
//! Inputs come from a deterministic in-file generator so the crate
//! builds with zero registry access.

use std::collections::HashSet;

use route_geom::{Layer, Point};
use route_model::{
    NetId, Occupant, PinSide, Problem, ProblemBuilder, RouteDb, Step, Trace, TraceId,
};

const W: u32 = 8;
const H: u32 = 6;

/// Tiny deterministic generator (SplitMix64).
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

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn two_net_problem() -> Problem {
    let mut b = ProblemBuilder::switchbox(W, H);
    b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
    b.net("b").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
    b.build().expect("fixed problem is valid")
}

/// A random contiguous walk starting at a random cell on a random layer.
fn random_trace(rng: &mut Rng) -> Trace {
    let mut layer = if rng.coin() { Layer::M2 } else { Layer::M1 };
    let mut at = Point::new(rng.below(u64::from(W)) as i32, rng.below(u64::from(H)) as i32);
    let mut steps = vec![Step::new(at, layer)];
    let moves = 1 + rng.below(11);
    for _ in 0..moves {
        let next = match rng.below(6) {
            0 => Point::new((at.x + 1).min(W as i32 - 1), at.y),
            1 => Point::new((at.x - 1).max(0), at.y),
            2 => Point::new(at.x, (at.y + 1).min(H as i32 - 1)),
            3 => Point::new(at.x, (at.y - 1).max(0)),
            _ => {
                // Layer change (via) to an adjacent layer.
                layer = match layer {
                    Layer::M1 => Layer::M2,
                    Layer::M2 => Layer::M1,
                    Layer::M3 => Layer::M2,
                };
                at
            }
        };
        let step = Step::new(next, layer);
        if step != *steps.last().expect("nonempty") {
            steps.push(step);
        }
        at = next;
    }
    Trace::from_steps(steps).expect("walk is contiguous")
}

/// Committing any sequence of traces for one net and then ripping
/// them all restores the exact original grid.
#[test]
fn commit_rip_all_restores_grid() {
    let mut rng = Rng(0xDB01);
    for _ in 0..100 {
        let problem = two_net_problem();
        let net = problem.nets()[0].id;
        let mut db = RouteDb::new(&problem);
        let pristine = db.grid().clone();
        let mut ids = Vec::new();
        let count = 1 + rng.below(7);
        for _ in 0..count {
            // Traces may collide with net b's pins; skip those.
            let t = random_trace(&mut rng);
            if let Ok(id) = db.commit(net, t) {
                ids.push(id);
            }
        }
        // Rip in a scrambled (reversed) order.
        for id in ids.into_iter().rev() {
            assert!(db.rip_up(id).is_some());
        }
        assert_eq!(db.grid(), &pristine);
        assert_eq!(db.stats().wirelength, 0);
        assert_eq!(db.stats().vias, 0);
    }
}

/// After any interleaving of commits and rip-ups, every slot owned by
/// the net on the grid is covered by a pin or a live trace, and vice
/// versa.
#[test]
fn occupancy_matches_live_traces() {
    let mut rng = Rng(0xDB02);
    for _ in 0..100 {
        let problem = two_net_problem();
        let net = problem.nets()[0].id;
        let mut db = RouteDb::new(&problem);
        let mut ids = Vec::new();
        let count = 1 + rng.below(7);
        for _ in 0..count {
            let t = random_trace(&mut rng);
            if let Ok(id) = db.commit(net, t) {
                ids.push(id);
            }
        }
        for id in ids {
            if rng.coin() {
                db.rip_up(id);
            }
        }
        // Expected occupancy: pins plus live traces.
        let mut expected: HashSet<(Point, Layer)> =
            db.pins(net).iter().map(|p| (p.at, p.layer)).collect();
        for (_, t) in db.traces(net) {
            for s in t.steps() {
                expected.insert((s.at, s.layer));
            }
        }
        for p in db.grid().points() {
            for layer in Layer::ALL {
                let owned = db.grid().occupant(p, layer) == Occupant::Net(net);
                assert_eq!(owned, expected.contains(&(p, layer)), "mismatch at {p:?} {layer:?}");
            }
        }
        // net_slots agrees with the grid.
        let slots = db.net_slots(net);
        assert_eq!(slots.len(), expected.len());
    }
}

/// Commit never mutates the database when it fails.
#[test]
fn failed_commit_is_a_noop() {
    let mut rng = Rng(0xDB03);
    for _ in 0..150 {
        let problem = two_net_problem();
        let (a, b) = (problem.nets()[0].id, problem.nets()[1].id);
        let mut db = RouteDb::new(&problem);
        // Fill net b's row so many traces collide with it.
        let wall = Trace::from_steps(
            (0..W as i32).map(|x| Step::new(Point::new(x, 4), Layer::M1)).collect(),
        )
        .expect("contiguous");
        db.commit(b, wall).expect("empty row commits");
        let before = db.clone();
        let t = random_trace(&mut rng);
        if db.commit(a, t).is_err() {
            assert_eq!(db.grid(), before.grid());
            assert_eq!(db.stats(), before.stats());
        }
    }
}

/// Asserts that `got` holds the same state as `want` in everything a
/// database exposes: metal, statistics, refcounted slots and vias, and
/// every net's live traces with their ids.
fn assert_same_state(got: &RouteDb, want: &RouteDb, case: usize) {
    assert_eq!(got.checksum(), want.checksum(), "case {case}: checksum");
    assert_eq!(got.stats(), want.stats(), "case {case}: stats");
    assert_eq!(got.grid(), want.grid(), "case {case}: grid");
    assert!(got.grid().debug_validate_bits(), "case {case}: free plane out of sync");
    for i in 0..want.net_count() {
        let net = NetId(i as u32);
        let traces = |db: &RouteDb| -> Vec<(TraceId, Trace)> {
            db.traces(net).map(|(id, t)| (id, t.clone())).collect()
        };
        assert_eq!(traces(got), traces(want), "case {case}: traces of net {i}");
        assert_eq!(got.slot_count(net), want.slot_count(net), "case {case}: slots of net {i}");
        assert_eq!(got.via_count(net), want.via_count(net), "case {case}: vias of net {i}");
    }
}

/// The delta path against the clone path: random interleavings of
/// commits, rip-ups, whole-net rip-ups and dangling-wire pruning, with
/// random checkpoints, rewind to exactly the state a clone taken at the
/// checkpoint holds. Failed commits and rips of dead ids record nothing.
#[test]
fn rewind_equals_clone_at_checkpoint() {
    let mut rng = Rng(0xDB04);
    let mut rewinds = 0;
    for case in 0..300 {
        let problem = two_net_problem();
        let nets = [problem.nets()[0].id, problem.nets()[1].id];
        let mut db = RouteDb::new(&problem);
        let mut issued: Vec<TraceId> = Vec::new();
        let mut saved: Option<RouteDb> = None;
        for _ in 0..40 {
            let net = nets[rng.below(2) as usize];
            let edits = db.edits_since_checkpoint();
            match rng.below(10) {
                0..=3 => match db.commit(net, random_trace(&mut rng)) {
                    Ok(id) => issued.push(id),
                    Err(_) => assert_eq!(db.edits_since_checkpoint(), edits, "failed commit"),
                },
                4 | 5 if !issued.is_empty() => {
                    let id = issued[rng.below(issued.len() as u64) as usize];
                    if db.rip_up(id).is_none() {
                        assert_eq!(db.edits_since_checkpoint(), edits, "rip of a dead id");
                    }
                }
                6 => {
                    db.rip_up_net(net);
                }
                7 => {
                    db.prune_dangling(net);
                }
                8 => {
                    db.checkpoint();
                    saved = Some(db.clone());
                }
                _ => {
                    let before = db.checksum();
                    db.rewind();
                    if let Some(want) = &saved {
                        assert_same_state(&db, want, case);
                        assert_eq!(db.edits_since_checkpoint(), Some(0));
                        rewinds += 1;
                    } else {
                        assert_eq!(db.checksum(), before, "rewind without a checkpoint");
                        assert_eq!(db.edits_since_checkpoint(), None);
                    }
                }
            }
        }
        if let Some(want) = &saved {
            db.rewind();
            assert_same_state(&db, want, case);
            // Slot numbering continues where the checkpointed state left
            // it: the next commit gets the id the clone would hand out.
            let mut twin = want.clone();
            let trace = random_trace(&mut rng);
            let net = nets[rng.below(2) as usize];
            assert_eq!(db.commit(net, trace.clone()).ok(), twin.commit(net, trace).ok());
        }
    }
    assert!(rewinds > 300, "the interleavings must exercise rewind ({rewinds})");
}

/// A database holding `db`'s live traces and nothing of its history:
/// every net's traces committed afresh, in slot order.
fn rebuilt(problem: &Problem, db: &RouteDb) -> RouteDb {
    let mut fresh = RouteDb::new(problem);
    for net in problem.nets() {
        for (_, trace) in db.traces(net.id) {
            fresh.commit(net.id, trace.clone()).expect("live wiring recommits");
        }
    }
    fresh
}

/// Every answer the walk memo gives must be the answer of a fresh walk:
/// after each operation of a random interleaving of commits, rip-ups,
/// whole-net rip-ups, pruning, checkpoints, rewinds and clones, every
/// net's `is_net_connected` equals `pin_components(net).len() <= 1` and
/// the answer of a database rebuilt from the live traces, and pruning a
/// clone rips what pruning the rebuilt database rips: the traces lying
/// outside every pin's component.
#[test]
fn walk_memo_answers_what_a_fresh_walk_answers() {
    let mut rng = Rng(0xDB05);
    let (mut answers, mut dead_wire) = ([0usize; 2], 0);
    for case in 0..300 {
        let problem = two_net_problem();
        let nets = [problem.nets()[0].id, problem.nets()[1].id];
        let mut db = RouteDb::new(&problem);
        let mut issued: Vec<TraceId> = Vec::new();
        for op in 0..40 {
            let net = nets[rng.below(2) as usize];
            match rng.below(9) {
                0..=3 => {
                    // Half the commits lay a run along the net's pin row,
                    // so nets connect and disconnect often.
                    let trace = if rng.coin() {
                        let row = if net == nets[0] { 1 } else { 4 };
                        let ends = [rng.below(u64::from(W)), rng.below(u64::from(W))];
                        let xs = ends[0].min(ends[1]) as i32..=ends[0].max(ends[1]) as i32;
                        let steps = xs.map(|x| Step::new(Point::new(x, row), Layer::M1));
                        Trace::from_steps(steps.collect()).expect("a row is contiguous")
                    } else {
                        random_trace(&mut rng)
                    };
                    if let Ok(id) = db.commit(net, trace) {
                        issued.push(id);
                    }
                }
                4 | 5 if !issued.is_empty() => {
                    db.rip_up(issued[rng.below(issued.len() as u64) as usize]);
                }
                4 | 5 => {
                    db.rip_up_net(net);
                }
                6 => {
                    db.prune_dangling(net);
                }
                7 => {
                    if rng.coin() {
                        db.checkpoint();
                    } else {
                        db.rewind();
                    }
                }
                _ => db = db.clone(),
            }
            let fresh = rebuilt(&problem, &db);
            for &n in &nets {
                let connected = db.is_net_connected(n);
                let at = format!("case {case} op {op} net {}", n.0);
                assert_eq!(connected, db.pin_components(n).len() <= 1, "{at}: components");
                assert_eq!(connected, fresh.is_net_connected(n), "{at}: rebuilt database");
                // Dead wire by the memo-free walk: the traces outside
                // every pin's component.
                let live: HashSet<Step> = db.pin_components(n).into_iter().flatten().collect();
                let dead: usize = db
                    .traces(n)
                    .filter(|(_, t)| !live.contains(&t.start()))
                    .map(|(_, t)| t.steps().len())
                    .sum();
                let pruned = db.clone().prune_dangling(n);
                assert_eq!(pruned, dead, "{at}: pruned steps");
                assert_eq!(pruned, fresh.clone().prune_dangling(n), "{at}: rebuilt pruned steps");
                answers[usize::from(connected)] += 1;
                dead_wire += usize::from(pruned > 0);
            }
        }
    }
    assert!(answers.iter().all(|&a| a > 1000), "both answers must occur often: {answers:?}");
    assert!(dead_wire > 1000, "dead wire must occur often ({dead_wire})");
}
