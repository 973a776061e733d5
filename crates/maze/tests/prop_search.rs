//! Property-style tests of the maze search: path legality, cost
//! consistency, agreement with the problem's obstacles, and agreement
//! with independent reachability and shortest-path references on grids
//! whose targets or sources sit in walled pockets. Inputs come from a
//! deterministic in-file generator so the crate builds with zero
//! registry access.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use route_geom::{Dir, Layer, Point, NUM_LAYERS};
use route_maze::search::{find_path, find_path_observed, find_path_soft, find_path_soft_observed};
use route_maze::search::{Query, SearchArena, SearchStats};
use route_maze::{CostModel, FrontierKind};
use route_model::{Grid, NetId, NopObserver, Occupant, ProblemBuilder, RouteDb, Step, Trace};

const SIDE: i32 = 10;

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

    fn cell(&mut self) -> Point {
        Point::new(self.below(SIDE as u64) as i32, self.below(SIDE as u64) as i32)
    }

    fn cells(&mut self, max: u64) -> Vec<Point> {
        let n = self.below(max);
        (0..n).map(|_| self.cell()).collect()
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo) as u64) as i32
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn setup(obstacles: &[Point]) -> RouteDb {
    let mut b = ProblemBuilder::switchbox(SIDE as u32, SIDE as u32);
    for &p in obstacles {
        // Keep corners free so sources/targets usually survive.
        b.obstacle(p);
    }
    b.net("n")
        .pin_at(Point::new(0, 0), Layer::M1)
        .pin_at(Point::new(SIDE - 1, SIDE - 1), Layer::M1);
    // Obstacles may cover the pins; retry without those obstacles.
    match b.build() {
        Ok(p) => RouteDb::new(&p),
        Err(_) => {
            let mut b = ProblemBuilder::switchbox(SIDE as u32, SIDE as u32);
            for &p in obstacles {
                if p != Point::new(0, 0) && p != Point::new(SIDE - 1, SIDE - 1) {
                    b.obstacle(p);
                }
            }
            b.net("n")
                .pin_at(Point::new(0, 0), Layer::M1)
                .pin_at(Point::new(SIDE - 1, SIDE - 1), Layer::M1);
            RouteDb::new(&b.build().expect("pins now clear"))
        }
    }
}

/// Any found path is contiguous, avoids blocked cells, and starts and
/// ends at the requested slots.
#[test]
fn found_paths_are_legal() {
    let mut rng = Rng(0x5E01);
    for _ in 0..120 {
        let obstacles = rng.cells(25);
        let (from, to) = (rng.cell(), rng.cell());
        let db = setup(&obstacles);
        let net = route_model::NetId(0);
        let (src, dst) = (Step::new(from, Layer::M1), Step::new(to, Layer::M2));
        let query = Query {
            grid: db.grid(),
            net,
            sources: vec![src],
            targets: vec![dst],
            cost: CostModel::default(),
        };
        if let Some(found) = find_path(&query) {
            let steps = found.trace.steps();
            assert_eq!(steps[0], src);
            assert_eq!(*steps.last().expect("nonempty"), dst);
            for s in steps {
                assert!(db.grid().occupant(s.at, s.layer) != Occupant::Blocked);
            }
            // Trace validity (contiguity) is enforced by construction;
            // committing it must succeed.
            let mut db2 = db.clone();
            assert!(db2.commit(net, found.trace).is_ok());
        }
    }
}

/// The optimal cost never exceeds the cost of any specific legal
/// alternative: adding obstacles can only increase the path cost.
#[test]
fn obstacles_never_decrease_cost() {
    let mut rng = Rng(0x5E02);
    for _ in 0..120 {
        let obstacles = rng.cells(20);
        let (from, to) = (rng.cell(), rng.cell());
        let empty = setup(&[]);
        let walled = setup(&obstacles);
        let net = route_model::NetId(0);
        let q_empty = Query {
            grid: empty.grid(),
            net,
            sources: vec![Step::new(from, Layer::M1)],
            targets: vec![Step::new(to, Layer::M1)],
            cost: CostModel::default(),
        };
        let q_walled = Query {
            grid: walled.grid(),
            net,
            sources: vec![Step::new(from, Layer::M1)],
            targets: vec![Step::new(to, Layer::M1)],
            cost: CostModel::default(),
        };
        let base = find_path(&q_empty);
        let hard = find_path(&q_walled);
        if let (Some(b), Some(h)) = (base, hard) {
            assert!(h.cost >= b.cost, "obstacles reduced cost: {} < {}", h.cost, b.cost);
        }
    }
}

/// The soft search with an always-permissive closure finds a path
/// whenever the hard search does, at no greater cost.
#[test]
fn soft_subsumes_hard() {
    let mut rng = Rng(0x5E03);
    for _ in 0..120 {
        let obstacles = rng.cells(20);
        let (from, to) = (rng.cell(), rng.cell());
        let db = setup(&obstacles);
        let net = route_model::NetId(0);
        let query = Query {
            grid: db.grid(),
            net,
            sources: vec![Step::new(from, Layer::M1)],
            targets: vec![Step::new(to, Layer::M2)],
            cost: CostModel::default(),
        };
        let hard = find_path(&query);
        let soft = find_path_soft(&query, &|_, _, _| Some(0));
        if let Some(h) = hard {
            let s = soft.expect("soft must find a path when hard does");
            assert!(s.cost <= h.cost);
        }
    }
}

/// The net every pocket query routes; foreign wiring belongs to nets
/// `1..=FOREIGN`.
const OWN: NetId = NetId(0);
const FOREIGN: u32 = 4;

/// One generated search problem: a grid with foreign wiring and a walled
/// pocket, plus the query's endpoints and the soft search's rules.
struct PocketCase {
    grid: Grid,
    sources: Vec<Step>,
    targets: Vec<Step>,
    /// Foreign owners the soft search may not cross.
    impassable: Vec<NetId>,
    /// Crossing penalty per foreign owner, indexed by `NetId.0`.
    penalty: [u64; FOREIGN as usize + 1],
}

impl PocketCase {
    fn soft_cost(&self, _: Point, _: Layer, owner: NetId) -> Option<u64> {
        if self.impassable.contains(&owner) {
            None
        } else {
            Some(self.penalty[owner.0 as usize])
        }
    }

    fn query(&self) -> Query<'_> {
        Query {
            grid: &self.grid,
            net: OWN,
            sources: self.sources.clone(),
            targets: self.targets.clone(),
            cost: CostModel::default(),
        }
    }
}

fn random_step(rng: &mut Rng, x: (i32, i32), y: (i32, i32)) -> Step {
    let p = Point::new(rng.range(x.0, x.1), rng.range(y.0, y.1));
    Step::new(p, Layer::from_index(rng.below(NUM_LAYERS as u64) as usize))
}

/// A random grid with foreign wiring, obstacles and own-net slots, and
/// a rectangular pocket walled on every layer around the targets (or,
/// half the time, the sources). The wall is made of obstacles and
/// foreign wiring, and sometimes has one free gap.
fn pocket_case(rng: &mut Rng) -> PocketCase {
    let (w, h) = (rng.range(6, 17), rng.range(6, 15));
    let mut grid = Grid::new(w as u32, h as u32);
    if rng.chance(3) {
        for y in 0..h {
            for x in 0..w {
                grid.set_occupant(Point::new(x, y), Layer::M3, Occupant::Blocked);
            }
        }
    }
    let owner = |rng: &mut Rng| NetId(1 + rng.below(u64::from(FOREIGN)) as u32);
    // Foreign wiring: straight runs on random layers.
    for _ in 0..rng.below(10) {
        let (net, start) = (owner(rng), random_step(rng, (0, w), (0, h)));
        let dir = Dir::ALL[rng.below(4) as usize];
        let mut at = start.at;
        for _ in 0..rng.range(1, 8) {
            if !grid.in_bounds(at) {
                break;
            }
            grid.set_occupant(at, start.layer, Occupant::Net(net));
            at = at.step(dir);
        }
    }
    for _ in 0..rng.below(12) {
        let s = random_step(rng, (0, w), (0, h));
        let occ = if rng.chance(2) { Occupant::Blocked } else { Occupant::Net(OWN) };
        grid.set_occupant(s.at, s.layer, occ);
    }
    // The pocket's interior is [x0, x1) x [y0, y1); its wall is the ring
    // around it, clipped to the grid.
    let (pw, ph) = (rng.range(1, 5), rng.range(1, 5));
    let (x0, y0) = (rng.range(0, w - pw + 1), rng.range(0, h - ph + 1));
    let (x1, y1) = (x0 + pw, y0 + ph);
    let mut ring = Vec::new();
    for y in y0 - 1..=y1 {
        for x in x0 - 1..=x1 {
            let inside = (x0..x1).contains(&x) && (y0..y1).contains(&y);
            let p = Point::new(x, y);
            if !inside && grid.in_bounds(p) {
                ring.push(p);
            }
        }
    }
    for &p in &ring {
        for layer in Layer::ALL {
            let occ = if rng.chance(2) { Occupant::Blocked } else { Occupant::Net(owner(rng)) };
            grid.set_occupant(p, layer, occ);
        }
    }
    if !ring.is_empty() && rng.chance(3) {
        let gap = ring[rng.below(ring.len() as u64) as usize];
        let layer = Layer::from_index(rng.below(2) as usize);
        grid.set_occupant(gap, layer, Occupant::Free);
    }
    let inside: Vec<Step> =
        (0..rng.range(1, 4)).map(|_| random_step(rng, (x0, x1), (y0, y1))).collect();
    let mut outside = Vec::new();
    while outside.len() < rng.range(1, 4) as usize {
        let s = random_step(rng, (0, w), (0, h));
        let in_pocket = (x0 - 1..=x1).contains(&s.at.x) && (y0 - 1..=y1).contains(&s.at.y);
        if !in_pocket {
            outside.push(s);
        }
    }
    // Endpoints sit on free or own slots, as the router's pins do.
    for s in inside.iter().chain(&outside) {
        if !grid.admits(s.at, s.layer, OWN) {
            grid.set_occupant(s.at, s.layer, Occupant::Free);
        }
    }
    let (sources, targets) = if rng.chance(2) { (outside, inside) } else { (inside, outside) };
    let impassable = (1..=FOREIGN).map(NetId).filter(|_| rng.chance(2)).collect();
    let mut penalty = [0; FOREIGN as usize + 1];
    for p in penalty.iter_mut().skip(1) {
        *p = 1 + rng.below(40);
    }
    PocketCase { grid, sources, targets, impassable, penalty }
}

/// The search's own graph, written out independently: the slots a
/// query may enter, with the extra cost of entering each.
fn reference_enter(case: &PocketCase, soft: bool, s: Step) -> Option<u64> {
    if !case.grid.in_bounds(s.at) {
        return None;
    }
    match case.grid.occupant(s.at, s.layer) {
        Occupant::Free => Some(0),
        Occupant::Net(n) if n == OWN => Some(0),
        Occupant::Net(n) if soft => case.soft_cost(s.at, s.layer, n),
        _ => None,
    }
}

/// Every slot one wire step or one via away, with the move's base cost.
fn moves(s: Step, cost: &CostModel) -> Vec<(Step, u64)> {
    let mut out: Vec<(Step, u64)> = Dir::ALL
        .iter()
        .map(|&d| (Step::new(s.at.step(d), s.layer), u64::from(cost.step_cost(s.layer, d.axis()))))
        .collect();
    for other in Layer::ALL {
        if other.index().abs_diff(s.layer.index()) == 1 {
            out.push((Step::new(s.at, other), u64::from(cost.via)));
        }
    }
    out
}

fn usable(case: &PocketCase, steps: &[Step]) -> Vec<Step> {
    steps.iter().copied().filter(|s| case.grid.admits(s.at, s.layer, OWN)).collect()
}

/// Breadth-first reachability from the usable sources to any usable
/// target.
fn reference_reachable(case: &PocketCase, soft: bool) -> bool {
    let targets = usable(case, &case.targets);
    let mut seen: Vec<Step> = usable(case, &case.sources);
    let mut queue: VecDeque<Step> = seen.iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        if targets.contains(&s) {
            return true;
        }
        for (n, _) in moves(s, &CostModel::default()) {
            if reference_enter(case, soft, n).is_some() && !seen.contains(&n) {
                seen.push(n);
                queue.push_back(n);
            }
        }
    }
    false
}

/// Dijkstra's cheapest source-to-target cost, if any path exists.
fn reference_cost(case: &PocketCase, soft: bool) -> Option<u64> {
    let cost = CostModel::default();
    let targets = usable(case, &case.targets);
    let key = |s: Step| (s.at.x, s.at.y, s.layer.index());
    let mut best = std::collections::BTreeMap::new();
    let mut heap = BinaryHeap::new();
    for s in usable(case, &case.sources) {
        best.insert(key(s), 0);
        heap.push(Reverse((0, key(s))));
    }
    while let Some(Reverse((d, k))) = heap.pop() {
        if best.get(&k).is_some_and(|&b| d > b) {
            continue;
        }
        let s = Step::new(Point::new(k.0, k.1), Layer::from_index(k.2));
        if targets.contains(&s) {
            return Some(d);
        }
        for (n, base) in moves(s, &cost) {
            let Some(extra) = reference_enter(case, soft, n) else { continue };
            let nd = d + base + extra;
            if best.get(&key(n)).is_none_or(|&b| nd < b) {
                best.insert(key(n), nd);
                heap.push(Reverse((nd, key(n))));
            }
        }
    }
    None
}

/// The cost of `trace` recomputed step by step.
fn trace_cost(case: &PocketCase, soft: bool, trace: &Trace) -> u64 {
    let cost = CostModel::default();
    trace
        .steps()
        .windows(2)
        .map(|w| {
            let base =
                moves(w[0], &cost).into_iter().find(|(n, _)| *n == w[1]).expect("adjacent").1;
            base + reference_enter(case, soft, w[1]).expect("enterable")
        })
        .sum()
}

/// What one search returned: its path and cost, if found, and its
/// effort counters either way.
type Outcome = (Option<(Vec<Step>, u64)>, SearchStats);

fn search(arena: &mut SearchArena, case: &PocketCase, soft: bool) -> Outcome {
    let query = case.query();
    if soft {
        let rule = |p: Point, l: Layer, n: NetId| case.soft_cost(p, l, n);
        let (found, stats) = find_path_soft_observed(arena, &query, &rule, &mut NopObserver);
        (found.map(|f| (f.trace.steps().to_vec(), f.cost)), stats)
    } else {
        let (found, stats) = find_path_observed(arena, &query, &mut NopObserver);
        (found.map(|f| (f.trace.steps().to_vec(), f.cost)), stats)
    }
}

/// A hard or soft search on a walled-pocket grid finds a path exactly
/// when a source reaches a target, at Dijkstra's cost, along a path
/// whose recomputed cost is the reported one; both frontiers agree bit
/// for bit, effort counters included.
#[test]
fn pocket_searches_match_reachability_and_dijkstra() {
    let mut rng = Rng(0x9_0C4E7);
    let (mut found, mut hopeless) = (0, 0);
    for case_no in 0..400 {
        let case = pocket_case(&mut rng);
        for soft in [false, true] {
            let heap = search(&mut SearchArena::with_frontier(FrontierKind::Heap), &case, soft);
            let buckets = search(&mut SearchArena::new(), &case, soft);
            assert_eq!(heap, buckets, "case {case_no} soft {soft}: frontiers disagree");
            let reachable = reference_reachable(&case, soft);
            assert_eq!(buckets.0.is_some(), reachable, "case {case_no} soft {soft}");
            assert_eq!(
                buckets.0.as_ref().map(|f| f.1),
                reference_cost(&case, soft),
                "case {case_no} soft {soft}: cost differs from Dijkstra's"
            );
            if let Some((steps, cost)) = &buckets.0 {
                let trace = Trace::from_steps(steps.clone()).expect("contiguous");
                assert_eq!(trace_cost(&case, soft, &trace), *cost, "case {case_no}");
                assert!(case.sources.contains(&steps[0]), "case {case_no}");
                assert!(case.targets.contains(steps.last().expect("nonempty")));
                found += 1;
            } else {
                hopeless += 1;
            }
        }
    }
    // The generator must exercise both outcomes heavily.
    assert!(found > 150 && hopeless > 150, "found {found}, hopeless {hopeless}");
}

/// One warm arena, reused across every case and grid size, returns
/// exactly what a fresh arena returns for each search: first as the
/// pocket flood's stamp counts up, then with the stamp wrapping around
/// before every search, so each search runs under the stamp that marked
/// earlier searches' floods.
#[test]
fn warm_arena_matches_fresh_arenas_across_stamp_wraparound() {
    let mut rng = Rng(0x9_0C4E8);
    let cases: Vec<PocketCase> = (0..60).map(|_| pocket_case(&mut rng)).collect();
    let fresh: Vec<[Outcome; 2]> = cases
        .iter()
        .map(|c| [false, true].map(|soft| search(&mut SearchArena::new(), c, soft)))
        .collect();
    let mut warm = SearchArena::new();
    for wrap in [false, true] {
        for (i, case) in cases.iter().enumerate() {
            for (j, soft) in [false, true].into_iter().enumerate() {
                if wrap {
                    warm.set_pocket_stamp(u32::MAX);
                }
                let got = search(&mut warm, case, soft);
                assert_eq!(got, fresh[i][j], "wrap {wrap} case {i} soft {soft}");
            }
        }
    }
}
