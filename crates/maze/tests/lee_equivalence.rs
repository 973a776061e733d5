//! With the uniform cost model, the weighted A* must produce exactly the
//! Lee wavefront distances: same minimal path length as a plain BFS over
//! the `(point, layer)` graph. Instances come from a deterministic
//! in-file generator so the crate builds with zero registry access.

use std::collections::{HashMap, VecDeque};

use route_geom::{Layer, Point};
use route_maze::search::{find_path, Query};
use route_maze::{CostModel, SearchArena};
use route_model::{NetId, NopObserver, ProblemBuilder, RouteDb, Step};

const SIDE: i32 = 9;

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

    fn coord(&mut self) -> i32 {
        self.below(SIDE as u64) as i32
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Reference implementation: breadth-first search with unit edge costs
/// over free cells, vias included.
fn bfs_distance(db: &RouteDb, net: NetId, from: Step, to: Step) -> Option<u64> {
    let grid = db.grid();
    let mut dist: HashMap<(Point, Layer), u64> = HashMap::new();
    let mut queue = VecDeque::new();
    if !grid.admits(from.at, from.layer, net) {
        return None;
    }
    dist.insert((from.at, from.layer), 0);
    queue.push_back((from.at, from.layer));
    while let Some((p, layer)) = queue.pop_front() {
        let d = dist[&(p, layer)];
        if (p, layer) == (to.at, to.layer) {
            return Some(d);
        }
        let push = |np: Point,
                    nl: Layer,
                    dist: &mut HashMap<(Point, Layer), u64>,
                    queue: &mut VecDeque<(Point, Layer)>| {
            if grid.admits(np, nl, net) && !dist.contains_key(&(np, nl)) {
                dist.insert((np, nl), d + 1);
                queue.push_back((np, nl));
            }
        };
        for n in p.neighbors() {
            push(n, layer, &mut dist, &mut queue);
        }
        for adj in layer.adjacent() {
            push(p, adj, &mut dist, &mut queue);
        }
    }
    None
}

#[test]
fn uniform_astar_matches_bfs() {
    let mut rng = Rng(0x1EE0);
    for _ in 0..96 {
        let (fx, fy, fl) = (rng.coord(), rng.coord(), rng.coin());
        let (tx, ty, tl) = (rng.coord(), rng.coord(), rng.coin());
        let n_obstacles = rng.below(20);
        let mut b = ProblemBuilder::switchbox(SIDE as u32, SIDE as u32);
        for _ in 0..n_obstacles {
            let (x, y) = (rng.coord(), rng.coord());
            // Keep the endpoints clear.
            if (x, y) != (fx, fy) && (x, y) != (tx, ty) {
                b.obstacle(Point::new(x, y));
            }
        }
        b.net("n").pin_at(Point::new(fx, fy), Layer::M1).pin_at(Point::new(tx, ty), Layer::M1);
        let Ok(problem) = b.build() else { continue };
        let db = RouteDb::new(&problem);
        let net = problem.nets()[0].id;

        let layer = |m2: bool| if m2 { Layer::M2 } else { Layer::M1 };
        let from = Step::new(Point::new(fx, fy), layer(fl));
        let to = Step::new(Point::new(tx, ty), layer(tl));
        // Pins are on M1; M2 endpoints may be blocked only by obstacles.
        let query = Query {
            grid: db.grid(),
            net,
            sources: vec![from],
            targets: vec![to],
            cost: CostModel::uniform(),
        };
        let (found, _) = find_path(&mut SearchArena::new(), &query, &mut NopObserver);
        let astar = found.map(|f| f.cost);
        let bfs = if db.grid().admits(to.at, to.layer, net) {
            bfs_distance(&db, net, from, to)
        } else {
            None
        };
        assert_eq!(astar, bfs, "A* and BFS disagree from {from} to {to}");
    }
}
