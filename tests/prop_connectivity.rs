//! Property test of the routing database's connectivity walk against
//! the independent verifier: over random interleavings of commits and
//! rip-ups, `RouteDb::is_net_connected`, `RouteDb::pin_components` and
//! `RouteDb::prune_dangling` must agree with each other and with
//! `route_verify::verify` on every net after every edit. Inputs come
//! from a deterministic in-file generator so the test builds with zero
//! registry access.

use std::collections::{BTreeMap, HashSet};

use vlsi_route::geom::{Layer, Point};
use vlsi_route::maze::search::{find_path, Query};
use vlsi_route::maze::{CostModel, SearchArena};
use vlsi_route::model::{
    NetId, NopObserver, PinSide, Problem, ProblemBuilder, RouteDb, Step, Trace, TraceId,
};
use vlsi_route::verify::{verify, Violation};

const W: u32 = 10;
const H: u32 = 8;

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
}

/// Three multi-pin nets, one with pins stacked on both layers of one
/// point, so connectivity has to go through vias.
fn problem() -> Problem {
    let mut b = ProblemBuilder::switchbox(W, H);
    b.net("a")
        .pin_side(PinSide::Left, 1)
        .pin_side(PinSide::Right, 1)
        .pin_at(Point::new(4, 3), Layer::M1);
    b.net("b")
        .pin_side(PinSide::Bottom, 2)
        .pin_side(PinSide::Top, 7)
        .pin_at(Point::new(6, 5), Layer::M2);
    b.net("c")
        .pin_at(Point::new(2, 6), Layer::M1)
        .pin_at(Point::new(2, 6), Layer::M2)
        .pin_at(Point::new(8, 2), Layer::M1);
    b.build().expect("fixed problem is valid")
}

/// A random contiguous walk on the two routing layers, starting at one
/// of `net`'s pins half the time so walks often join components.
fn random_walk(rng: &mut Rng, db: &RouteDb, net: NetId) -> Trace {
    let pins = db.pins(net);
    let (mut at, mut layer) = if rng.below(2) == 0 {
        let pin = pins[rng.below(pins.len() as u64) as usize];
        (pin.at, pin.layer)
    } else {
        let at = Point::new(rng.below(u64::from(W)) as i32, rng.below(u64::from(H)) as i32);
        (at, if rng.below(2) == 0 { Layer::M1 } else { Layer::M2 })
    };
    let mut steps = vec![Step::new(at, layer)];
    for _ in 0..1 + rng.below(14) {
        match rng.below(6) {
            0 => at.x = (at.x + 1).min(W as i32 - 1),
            1 => at.x = (at.x - 1).max(0),
            2 => at.y = (at.y + 1).min(H as i32 - 1),
            3 => at.y = (at.y - 1).max(0),
            _ => layer = if layer == Layer::M1 { Layer::M2 } else { Layer::M1 },
        }
        let step = Step::new(at, layer);
        if step != *steps.last().expect("nonempty") {
            steps.push(step);
        }
    }
    Trace::from_steps(steps).expect("walk is contiguous")
}

/// A searched path from one random pin of `net` to another, if the
/// maze finds one: the edit that joins components.
fn pin_to_pin(rng: &mut Rng, arena: &mut SearchArena, db: &RouteDb, net: NetId) -> Option<Trace> {
    let pins = db.pins(net);
    let mut pick = || {
        let pin = pins[rng.below(pins.len() as u64) as usize];
        Step::new(pin.at, pin.layer)
    };
    let (sources, targets) = (vec![pick()], vec![pick()]);
    let query = Query { grid: db.grid(), net, sources, targets, cost: CostModel::default() };
    find_path(arena, &query, &mut NopObserver).0.map(|found| found.trace)
}

/// What the verifier says about every disconnected net: its number of
/// pin-holding components.
fn verifier_components(problem: &Problem, db: &RouteDb) -> BTreeMap<NetId, usize> {
    verify(problem, db)
        .violations()
        .iter()
        .filter_map(|v| match *v {
            Violation::Disconnected { net, components } => Some((net, components)),
            _ => None,
        })
        .collect()
}

#[test]
fn connectivity_walk_agrees_with_itself_and_the_verifier() {
    let mut rng = Rng(0xC0_44EC7);
    let (mut connected, mut disconnected, mut pruned) = (0usize, 0usize, 0usize);
    for case in 0..150 {
        let problem = problem();
        let nets: Vec<NetId> = problem.nets().iter().map(|n| n.id).collect();
        let mut db = RouteDb::new(&problem);
        let mut arena = SearchArena::new();
        for edit in 0..25 {
            let net = nets[rng.below(nets.len() as u64) as usize];
            match rng.below(10) {
                0..=2 => {
                    if let Some(path) = pin_to_pin(&mut rng, &mut arena, &db, net) {
                        db.commit(net, path).expect("hard search paths commit");
                    }
                }
                3..=5 => {
                    // Walks over foreign slots fail to commit and leave
                    // the database as it was.
                    let walk = random_walk(&mut rng, &db, net);
                    let _ = db.commit(net, walk);
                }
                6..=8 => {
                    let live: Vec<TraceId> = db.traces(net).map(|(id, _)| id).collect();
                    if !live.is_empty() {
                        db.rip_up(live[rng.below(live.len() as u64) as usize]);
                    }
                }
                _ => {
                    db.rip_up_net(net);
                }
            }

            let reported = verifier_components(&problem, &db);
            for &n in &nets {
                let at = format!("case {case}, edit {edit}, net {n:?}");
                let is_connected = db.is_net_connected(n);
                let components = db.pin_components(n);
                assert_eq!(is_connected, components.len() <= 1, "{at}: components {components:?}");
                assert_eq!(!is_connected, reported.contains_key(&n), "{at}: verifier disagrees");
                if let Some(&count) = reported.get(&n) {
                    assert_eq!(count, components.len(), "{at}: verifier component count");
                }
                if is_connected {
                    connected += 1;
                } else {
                    disconnected += 1;
                }

                let mut after = db.clone();
                pruned += after.prune_dangling(n);
                let live: HashSet<Step> = after.pin_components(n).into_iter().flatten().collect();
                for (id, trace) in after.traces(n) {
                    assert!(
                        trace.steps().iter().all(|s| live.contains(s)),
                        "{at}: trace {id:?} survived the prune off every pin component"
                    );
                }
                assert_eq!(after.is_net_connected(n), is_connected, "{at}: prune changed answer");
            }
        }
    }
    // The generator must reach both answers and give the prune work.
    assert!(connected > 0 && disconnected > 0, "{connected} connected, {disconnected} not");
    assert!(pruned > 0, "no dangling wire was ever pruned");
}
