//! Reference equivalence of the maze search: over random grids, hard
//! and soft searches return exactly what a plain A* returns — the same
//! found-or-not verdict, the same trace, cost and crossings.
//!
//! The oracle is written out here, independently of the crate: `prev`
//! pointers, the layer-blind Manhattan bound, `(f, g, index)` pop order
//! and a stop at the first popped target. The search under test keys
//! its open list with a tighter bound and reads its path back from the
//! distances, so this pins that neither shows in any result. Inputs
//! come from a deterministic in-file generator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use route_geom::{Dir, Layer, Point, NUM_LAYERS};
use route_maze::search::{find_path, find_path_soft, Query, SearchArena};
use route_maze::{CostModel, FoundPath, FrontierKind};
use route_model::{Grid, NetId, NopObserver, Occupant, Step};

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

    fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo) as u64) as i32
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn slot(&mut self, w: i32, h: i32, layers: usize) -> Step {
        let p = Point::new(self.range(0, w), self.range(0, h));
        Step::new(p, Layer::from_index(self.below(layers as u64) as usize))
    }
}

/// The routed net; foreign wiring belongs to nets `1..=FOREIGN`.
const OWN: NetId = NetId(0);
const FOREIGN: u32 = 4;

/// The four cost models in the workspace: the default, the uniform Lee
/// model, YACR's strict patch-up model and the optimizer's via-averse
/// one.
const MODELS: [CostModel; 4] = [
    CostModel { step: 1, via: 3, wrong_way: 1 },
    CostModel::uniform(),
    CostModel { step: 1, via: 2, wrong_way: 4 },
    CostModel { step: 1, via: 16, wrong_way: 1 },
];

/// How an interference search prices a foreign slot.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Every crossing is free.
    Zero,
    /// Every crossing costs the same.
    Constant(u64),
    /// Each owner has its own price; some owners may not be crossed.
    PerOwner([Option<u64>; FOREIGN as usize + 1]),
    /// No crossing is allowed: the soft search sees the hard graph.
    Impassable,
}

impl Rule {
    fn cost(&self, owner: NetId) -> Option<u64> {
        match self {
            Rule::Zero => Some(0),
            Rule::Constant(c) => Some(*c),
            Rule::PerOwner(by) => by[owner.0 as usize],
            Rule::Impassable => None,
        }
    }
}

/// One generated search: a grid, the query's endpoints and cost model,
/// and the soft search's rule.
struct Case {
    grid: Grid,
    sources: Vec<Step>,
    targets: Vec<Step>,
    cost: CostModel,
    rule: Rule,
}

impl Case {
    fn query(&self) -> Query<'_> {
        Query {
            grid: &self.grid,
            net: OWN,
            sources: self.sources.clone(),
            targets: self.targets.clone(),
            cost: self.cost,
        }
    }
}

/// Walls the 3x3 block around `c` with obstacles and foreign wiring on
/// every layer, maybe leaving one gap, and clears `c` itself: a pocket
/// one cell across.
fn wall_in(rng: &mut Rng, grid: &mut Grid, c: Point) {
    let mut ring = Vec::new();
    for y in c.y - 1..=c.y + 1 {
        for x in c.x - 1..=c.x + 1 {
            let p = Point::new(x, y);
            if p != c && grid.in_bounds(p) {
                ring.push(p);
            }
        }
    }
    for &p in &ring {
        for layer in Layer::ALL {
            let occ = if rng.chance(4) {
                Occupant::Blocked
            } else {
                Occupant::Net(NetId(1 + rng.below(u64::from(FOREIGN)) as u32))
            };
            grid.set_occupant(p, layer, occ);
        }
    }
    if !ring.is_empty() && rng.chance(4) {
        let gap = ring[rng.below(ring.len() as u64) as usize];
        grid.set_occupant(gap, Layer::from_index(rng.below(2) as usize), Occupant::Free);
    }
    for layer in Layer::ALL {
        grid.set_occupant(c, layer, Occupant::Free);
    }
}

fn random_case(rng: &mut Rng, case_no: usize) -> Case {
    let (w, h) = (rng.range(3, 13), rng.range(3, 11));
    let mut grid = Grid::new(w as u32, h as u32);
    let layers = if rng.chance(2) { 2 } else { NUM_LAYERS };
    if layers == 2 {
        for y in 0..h {
            for x in 0..w {
                grid.set_occupant(Point::new(x, y), Layer::M3, Occupant::Blocked);
            }
        }
    }
    // Foreign wiring: straight runs on random layers.
    for _ in 0..rng.below(8) {
        let owner = NetId(1 + rng.below(u64::from(FOREIGN)) as u32);
        let start = rng.slot(w, h, layers);
        let dir = Dir::ALL[rng.below(4) as usize];
        let mut at = start.at;
        for _ in 0..rng.range(1, 8) {
            if !grid.in_bounds(at) {
                break;
            }
            grid.set_occupant(at, start.layer, Occupant::Net(owner));
            at = at.step(dir);
        }
    }
    // Obstacles and own wiring.
    for _ in 0..rng.below(u64::from((w * h) as u32 / 3 + 1)) {
        let s = rng.slot(w, h, layers);
        let occ = if rng.chance(2) { Occupant::Blocked } else { Occupant::Net(OWN) };
        grid.set_occupant(s.at, s.layer, occ);
    }
    let mut sources: Vec<Step> = (0..rng.range(1, 4)).map(|_| rng.slot(w, h, layers)).collect();
    let mut targets: Vec<Step> = (0..rng.range(1, 4)).map(|_| rng.slot(w, h, layers)).collect();
    if rng.chance(3) {
        // Stacked target slots: one point, two layers.
        let t = targets[0];
        let other = Layer::from_index((t.layer.index() + 1) % layers);
        targets.push(Step::new(t.at, other));
    }
    if rng.chance(8) {
        // A source that is also a target.
        let s = sources[rng.below(sources.len() as u64) as usize];
        targets.push(s);
    }
    match rng.below(3) {
        0 => {
            wall_in(rng, &mut grid, sources[0].at);
            sources.truncate(1);
        }
        1 => {
            let c = targets[0].at;
            wall_in(rng, &mut grid, c);
            targets.retain(|t| t.at == c);
        }
        _ => {}
    }
    // Endpoints sit on free or own slots most of the time, as the
    // router's pins do; the rest exercise the unusable-slot filter.
    for s in sources.iter().chain(&targets) {
        if !rng.chance(10) && !grid.admits(s.at, s.layer, OWN) {
            grid.set_occupant(s.at, s.layer, Occupant::Free);
        }
    }
    let rule = match case_no % 4 {
        0 => Rule::Zero,
        1 => Rule::Constant(1 + rng.below(30)),
        2 => {
            let mut by = [None; FOREIGN as usize + 1];
            for c in by.iter_mut().skip(1) {
                *c = (!rng.chance(3)).then(|| rng.below(50));
            }
            Rule::PerOwner(by)
        }
        _ => Rule::Impassable,
    };
    let cost = MODELS[(case_no / 4) % MODELS.len()];
    Case { grid, sources, targets, cost, rule }
}

/// What a search returned, in comparable form.
type Outcome = Option<(Vec<Step>, u64, Vec<(NetId, Step)>)>;

fn outcome(found: Option<FoundPath>) -> Outcome {
    found.map(|f| (f.trace.steps().to_vec(), f.cost, f.crossings))
}

/// The search's node index, as documented on `search::node_index`.
fn index(grid: &Grid, s: Step) -> usize {
    (s.at.y as usize * grid.width() as usize + s.at.x as usize) * NUM_LAYERS + s.layer.index()
}

fn slot_of(grid: &Grid, idx: usize) -> Step {
    let cell = idx / NUM_LAYERS;
    let w = grid.width() as usize;
    Step::new(Point::new((cell % w) as i32, (cell / w) as i32), Layer::from_index(idx % NUM_LAYERS))
}

/// The plain A* the search must reproduce.
fn oracle(case: &Case, soft: bool) -> Outcome {
    let grid = &case.grid;
    let usable = |s: &&Step| grid.admits(s.at, s.layer, OWN);
    let targets: Vec<Step> = case.targets.iter().filter(usable).copied().collect();
    let sources: Vec<Step> = case.sources.iter().filter(usable).copied().collect();
    if targets.is_empty() || sources.is_empty() {
        return None;
    }
    let step = u64::from(case.cost.step);
    let h = |p: Point| {
        targets
            .iter()
            .map(|t| u64::from(p.manhattan(t.at)) * step)
            .min()
            .expect("targets are nonempty")
    };
    let enter = |s: Step| -> Option<u64> {
        if !grid.in_bounds(s.at) {
            return None;
        }
        match grid.occupant(s.at, s.layer) {
            Occupant::Free => Some(0),
            Occupant::Net(n) if n == OWN => Some(0),
            Occupant::Net(n) if soft => case.rule.cost(n),
            _ => None,
        }
    };
    let n = grid.width() as usize * grid.height() as usize * NUM_LAYERS;
    let mut dist = vec![u64::MAX; n];
    let mut prev = vec![usize::MAX; n];
    let mut open = BinaryHeap::new();
    for &s in &sources {
        let i = index(grid, s);
        if dist[i] == u64::MAX {
            dist[i] = 0;
            open.push(Reverse((h(s.at), 0, i)));
        }
    }
    let mut end = None;
    while let Some(Reverse((_, g, i))) = open.pop() {
        if g > dist[i] {
            continue;
        }
        let u = slot_of(grid, i);
        if targets.contains(&u) {
            end = Some(i);
            break;
        }
        let wires = Dir::ALL
            .iter()
            .map(|d| (Step::new(u.at.step(*d), u.layer), case.cost.step_cost(u.layer, d.axis())));
        let vias = Layer::ALL
            .into_iter()
            .filter(|l| l.index().abs_diff(u.layer.index()) == 1)
            .map(|l| (Step::new(u.at, l), case.cost.via));
        for (v, base) in wires.chain(vias) {
            let Some(extra) = enter(v) else { continue };
            let ng = g + u64::from(base) + extra;
            let j = index(grid, v);
            if ng < dist[j] {
                dist[j] = ng;
                prev[j] = i;
                open.push(Reverse((ng + h(v.at), ng, j)));
            }
        }
    }
    let end = end?;
    let mut path = vec![slot_of(grid, end)];
    let mut i = end;
    while prev[i] != usize::MAX {
        i = prev[i];
        path.push(slot_of(grid, i));
    }
    path.reverse();
    let crossings = path
        .iter()
        .filter_map(|s| match grid.occupant(s.at, s.layer) {
            Occupant::Net(n) if n != OWN => Some((n, *s)),
            _ => None,
        })
        .collect();
    Some((path, dist[end], crossings))
}

fn search(arena: &mut SearchArena, case: &Case, soft: bool) -> Outcome {
    let query = case.query();
    if soft {
        let rule = |_: Point, _: Layer, n: NetId| case.rule.cost(n);
        outcome(find_path_soft(arena, &query, &rule, &mut NopObserver).0)
    } else {
        outcome(find_path(arena, &query, &mut NopObserver).0)
    }
}

/// Hard and soft searches, on both frontiers and in a warm arena, return
/// the plain A*'s verdict, trace, cost and crossings on every case.
#[test]
fn searches_return_the_reference_astar_result() {
    let mut rng = Rng(0x0EF_A57A);
    let mut warm = SearchArena::new();
    let (mut found, mut hopeless, mut crossed, mut multi_step) = (0, 0, 0, 0);
    for case_no in 0..3000 {
        let case = random_case(&mut rng, case_no);
        for soft in [false, true] {
            let want = oracle(&case, soft);
            let got = search(&mut SearchArena::new(), &case, soft);
            assert_eq!(
                got, want,
                "case {case_no} soft {soft} cost {:?} rule {:?}",
                case.cost, case.rule
            );
            let heap = search(&mut SearchArena::with_frontier(FrontierKind::Heap), &case, soft);
            assert_eq!(heap, want, "case {case_no} soft {soft}: heap frontier");
            assert_eq!(search(&mut warm, &case, soft), want, "case {case_no} soft {soft}: warm");
            match &want {
                Some((path, _, crossings)) => {
                    found += 1;
                    crossed += usize::from(!crossings.is_empty());
                    multi_step += usize::from(path.len() > 3);
                }
                None => hopeless += 1,
            }
        }
    }
    // The generator must exercise every outcome heavily.
    assert!(
        found > 2000 && hopeless > 1000 && crossed > 300 && multi_step > 1500,
        "found {found}, hopeless {hopeless}, crossed {crossed}, multi-step {multi_step}"
    );
}
