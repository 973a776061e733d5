//! Congestion-aware global routing over the tile graph.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use route_geom::Rect;
use route_maze::{BucketFrontier, Frontier};
use route_model::{NetId, Problem, TileEdge, TileGrid, TileId};

/// The result of the planning phase: per net, the tree of tile edges the
/// net will cross.
#[derive(Debug, Clone)]
pub struct GlobalPlan {
    pub(crate) net_edges: Vec<BTreeSet<TileEdge>>,
    pub(crate) unplanned: Vec<NetId>,
    /// Edges whose planned usage exceeds their boundary capacity.
    pub overflowed_edges: usize,
    /// Total tile-edge crossings planned.
    pub crossings: usize,
}

impl GlobalPlan {
    /// The tile edges `net` is planned to cross, in normalized order.
    pub fn edges_of(&self, net: NetId) -> impl Iterator<Item = TileEdge> + '_ {
        self.net_edges[net.index()].iter().copied()
    }

    /// Nets the planner could not fully connect over the tile graph
    /// (some pin tile is unreachable through positive-capacity edges).
    /// These nets receive no crossings: the detail phase keeps their
    /// pins as blockers and the flat fallback is their only chance.
    pub fn unplanned(&self) -> &[NetId] {
        &self.unplanned
    }
}

/// Net-ordering policy for the planning phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanOrder {
    /// Smallest pin bounding box first — the historical order, and the
    /// byte-identity baseline every determinism golden pins.
    #[default]
    Bbox,
    /// Static-analysis feature order: nets through the most congested
    /// tiles first (ties: more boundary crossings first, then net id),
    /// from `route_analyze::net_features`. Deterministic and
    /// `jobs`-independent — planning is serial either way — but it
    /// changes which nets claim scarce seam capacity first.
    Features,
}

/// Plans every net of `problem` over `tiles`.
///
/// Nets are processed smallest pin bounding box first; each connection
/// runs a Dijkstra over the tile graph whose edge cost grows with the
/// edge's current usage relative to its capacity. Saturated edges stay
/// passable at a steep penalty so every net receives a plan; overflow is
/// reported and resolved later (the over-subscribed crossings simply
/// fail assignment and fall back to flat routing).
pub fn plan(problem: &Problem, tiles: &TileGrid) -> GlobalPlan {
    plan_with(problem, tiles, PlanOrder::Bbox, &BTreeSet::new())
}

/// [`plan`] with an explicit net-ordering policy and a set of nets to
/// leave out entirely (certified-unroutable nets the precheck already
/// condemned: planning them would waste seam capacity on wiring that
/// can never connect). Skipped nets get no edges and are *not* reported
/// as unplanned — the caller already accounts for them.
pub fn plan_with(
    problem: &Problem,
    tiles: &TileGrid,
    net_order: PlanOrder,
    skip: &BTreeSet<NetId>,
) -> GlobalPlan {
    let base = problem.base_grid();
    // Edge capacities.
    let mut capacity: BTreeMap<TileEdge, usize> = BTreeMap::new();
    for t in tiles.tiles() {
        for n in tiles.neighbors(t) {
            let edge = TileEdge::new(t, n);
            capacity.entry(edge).or_insert_with(|| tiles.edge_cells(edge, &base).1.len());
        }
    }
    let mut usage: BTreeMap<TileEdge, usize> = BTreeMap::new();

    let mut order: Vec<NetId> =
        problem.nets().iter().map(|n| n.id).filter(|id| !skip.contains(id)).collect();
    match net_order {
        // Small bounding boxes first.
        PlanOrder::Bbox => order.sort_by_key(|&id| {
            let net = problem.net(id);
            let first = net.pins[0].at;
            let bbox =
                net.pins.iter().fold(Rect::cell(first), |acc, p| acc.union(&Rect::cell(p.at)));
            (bbox.width() + bbox.height(), id.0)
        }),
        // Hardest nets first, by the static congestion estimate.
        PlanOrder::Features => {
            let features = route_analyze::net_features(problem, tiles.tile());
            order.sort_by_key(|&id| {
                let f = &features[id.index()];
                (std::cmp::Reverse(f.congestion), std::cmp::Reverse(f.crossings), id.0)
            });
        }
    }

    let mut net_edges: Vec<BTreeSet<TileEdge>> = vec![BTreeSet::new(); problem.nets().len()];
    let mut unplanned: Vec<NetId> = Vec::new();
    for id in order {
        let net = problem.net(id);
        let mut pin_tiles: Vec<TileId> = net.pins.iter().map(|p| tiles.tile_of(p.at)).collect();
        pin_tiles.sort_unstable();
        pin_tiles.dedup();
        if pin_tiles.len() <= 1 {
            continue;
        }
        let mut component: HashSet<TileId> = HashSet::from([pin_tiles[0]]);
        for &target in &pin_tiles[1..] {
            if component.contains(&target) {
                continue;
            }
            if let Some(path) = dijkstra(tiles, &component, target, &capacity, &usage) {
                for window in path.windows(2) {
                    let edge = TileEdge::new(window[0], window[1]);
                    *usage.entry(edge).or_insert(0) += 1;
                    net_edges[id.index()].insert(edge);
                }
                component.extend(path);
            } else {
                // No path only happens when the tile graph is
                // disconnected (capacity-zero cuts). Mark the net
                // unplanned and release its partial path: half-planned
                // crossings would waste seam capacity on a net that
                // cannot connect through tiles anyway.
                for &edge in &net_edges[id.index()] {
                    if let Some(u) = usage.get_mut(&edge) {
                        *u -= 1;
                    }
                }
                net_edges[id.index()].clear();
                unplanned.push(id);
                break;
            }
        }
    }
    unplanned.sort_unstable_by_key(|id| id.0);

    let overflowed_edges =
        usage.iter().filter(|(e, &u)| u > capacity.get(e).copied().unwrap_or(0)).count();
    let crossings = net_edges.iter().map(BTreeSet::len).sum();
    GlobalPlan { net_edges, unplanned, overflowed_edges, crossings }
}

/// Dijkstra from any tile of `sources` to `target`; returns the tile
/// path (source first). Saturated edges cost heavily but remain usable;
/// zero-capacity edges are impassable.
fn dijkstra(
    tiles: &TileGrid,
    sources: &HashSet<TileId>,
    target: TileId,
    capacity: &BTreeMap<TileEdge, usize>,
    usage: &BTreeMap<TileEdge, usize>,
) -> Option<Vec<TileId>> {
    let edge_cost = |edge: TileEdge| -> Option<u64> {
        let cap = capacity.get(&edge).copied().unwrap_or(0);
        if cap == 0 {
            return None;
        }
        let used = usage.get(&edge).copied().unwrap_or(0);
        // 1 per hop, plus growing congestion pressure, plus a cliff when
        // the edge would overflow.
        let congestion = (4 * used / cap) as u64;
        let overflow = if used >= cap { 1000 } else { 0 };
        Some(1 + congestion + overflow)
    };

    // Tile keys map onto the maze frontier as (f = distance, g = col,
    // idx = row): lexicographic (f, g, idx) order is exactly the old
    // BinaryHeap<Reverse<(d, (col, row))>> pop order.
    let mut dist: HashMap<TileId, u64> = HashMap::new();
    let mut prev: HashMap<TileId, TileId> = HashMap::new();
    let mut frontier = BucketFrontier::new();
    for &s in sources {
        dist.insert(s, 0);
        frontier.push(0, u64::from(s.col), s.row);
    }
    while let Some((d, col, row)) = frontier.pop() {
        let t = TileId { col: col as u32, row };
        if d > dist.get(&t).copied().unwrap_or(u64::MAX) {
            continue;
        }
        if t == target {
            // Reconstruct.
            let mut path = vec![t];
            let mut cur = t;
            while let Some(&p) = prev.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for n in tiles.neighbors(t) {
            let Some(cost) = edge_cost(TileEdge::new(t, n)) else { continue };
            let nd = d + cost;
            if nd < dist.get(&n).copied().unwrap_or(u64::MAX) {
                dist.insert(n, nd);
                prev.insert(n, t);
                frontier.push(nd, u64::from(n.col), n.row);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_geom::Point;
    use route_model::{PinSide, ProblemBuilder};

    #[test]
    fn straight_net_plans_a_straight_tile_path() {
        let mut b = ProblemBuilder::switchbox(32, 8);
        b.net("a").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        let p = b.build().unwrap();
        let tiles = TileGrid::new(&p, 8);
        let plan = plan(&p, &tiles);
        // 4 tiles across, 3 edges to cross.
        assert_eq!(plan.net_edges[0].len(), 3);
        assert_eq!(plan.crossings, 3);
        assert_eq!(plan.overflowed_edges, 0);
        for e in &plan.net_edges[0] {
            assert!(e.is_horizontal());
            assert_eq!(e.a.row, 0);
        }
    }

    #[test]
    fn intra_tile_net_needs_no_crossings() {
        let mut b = ProblemBuilder::switchbox(32, 32);
        b.net("local")
            .pin_at(Point::new(1, 1), route_geom::Layer::M1)
            .pin_at(Point::new(5, 5), route_geom::Layer::M1);
        let p = b.build().unwrap();
        let tiles = TileGrid::new(&p, 16);
        let plan = plan(&p, &tiles);
        assert!(plan.net_edges[0].is_empty());
    }

    #[test]
    fn congestion_spreads_nets_over_parallel_rows() {
        // Many nets crossing left to right through a 2-tall tile grid:
        // congestion cost should push some onto the upper row of tiles.
        let mut b = ProblemBuilder::switchbox(16, 16);
        for i in 0..7 {
            b.net(format!("n{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, i);
        }
        let p = b.build().unwrap();
        let tiles = TileGrid::new(&p, 8);
        let g = plan(&p, &tiles);
        assert_eq!(g.overflowed_edges, 0, "capacity 8 vs 7 nets: no overflow needed");
        // Every net is planned, and as the direct edge fills up, the
        // congestion cost pushes later nets onto the 3-hop detour
        // through the upper tile row.
        assert!(g.net_edges.iter().all(|e| !e.is_empty()));
        assert!(g.net_edges.iter().any(|e| e.len() == 1), "early nets take the direct edge");
        assert!(
            g.net_edges.iter().any(|e| e.len() > 1),
            "late nets detour around the congested edge"
        );
    }

    #[test]
    fn capacity_zero_cut_marks_nets_unplanned() {
        use route_geom::Rect;
        let mut b = ProblemBuilder::switchbox(16, 8);
        // A full-stack wall on the tile boundary columns: the edge
        // between the two tiles has zero capacity.
        b.obstacle_rect(Rect::with_size(Point::new(7, 0), 2, 8));
        b.net("cut").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        let p = b.build().unwrap();
        let tiles = TileGrid::new(&p, 8);
        let g = plan(&p, &tiles);
        assert_eq!(g.unplanned(), &[route_model::NetId(0)]);
        assert_eq!(g.edges_of(route_model::NetId(0)).count(), 0);
        assert_eq!(g.crossings, 0, "partial paths are released");
    }

    #[test]
    fn plan_with_skips_nets_and_feature_order_is_deterministic() {
        let mut b = ProblemBuilder::switchbox(16, 16);
        for i in 0..4 {
            b.net(format!("n{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, i);
        }
        let p = b.build().unwrap();
        let tiles = TileGrid::new(&p, 8);
        let skip = BTreeSet::from([route_model::NetId(1)]);
        let g = plan_with(&p, &tiles, PlanOrder::Bbox, &skip);
        assert!(g.net_edges[1].is_empty(), "skipped nets receive no edges");
        assert!(g.unplanned().is_empty(), "skipped is not unplanned");
        assert!(!g.net_edges[0].is_empty());
        // Feature order is a pure function of the problem: two runs
        // agree, and every net still gets planned.
        let a = plan_with(&p, &tiles, PlanOrder::Features, &BTreeSet::new());
        let b2 = plan_with(&p, &tiles, PlanOrder::Features, &BTreeSet::new());
        assert_eq!(a.net_edges, b2.net_edges);
        assert!(a.net_edges.iter().all(|e| !e.is_empty()));
    }

    #[test]
    fn multi_pin_nets_plan_trees() {
        let mut b = ProblemBuilder::switchbox(32, 32);
        b.net("t")
            .pin_side(PinSide::Left, 16)
            .pin_side(PinSide::Right, 16)
            .pin_side(PinSide::Top, 16)
            .pin_side(PinSide::Bottom, 16);
        let p = b.build().unwrap();
        let tiles = TileGrid::new(&p, 16);
        let g = plan(&p, &tiles);
        // Four pin tiles (the four quadrants); a tree needs >= 3 edges.
        assert!(g.net_edges[0].len() >= 3, "{:?}", g.net_edges[0]);
    }
}
