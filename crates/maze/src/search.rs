//! Weighted A* path search over the multi-layer occupancy grid.

use route_geom::{Dir, Layer, Point, NUM_LAYERS};
use route_model::{
    Grid, NetId, OccupancyView, Occupant, RouteObserver, SearchKind, SearchProbe, Step, Trace,
};

use crate::frontier::{BucketFrontier, Frontier, FrontierKind, HeapFrontier};
use crate::CostModel;

/// A path-search request: connect any of `sources` to any of `targets`
/// with wiring of `net` over `grid`.
///
/// Sources are typically the net's already-connected component (pins plus
/// committed wiring); targets the next pin to attach. Slots the net may
/// not occupy are silently dropped from both sets.
#[derive(Debug, Clone)]
pub struct Query<'a> {
    /// The occupancy grid to search.
    pub grid: &'a Grid,
    /// The net being routed.
    pub net: NetId,
    /// Starting slots (cost zero).
    pub sources: Vec<Step>,
    /// Goal slots; the search stops at the first one settled.
    pub targets: Vec<Step>,
    /// Cost weights.
    pub cost: CostModel,
}

/// Search effort counters, used by the scaling experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes settled (popped with final cost).
    pub expanded: usize,
    /// Edge relaxations attempted.
    pub relaxed: usize,
    /// Largest open-list size reached during the search. Stale entries
    /// count, and every [`Frontier`] implementation counts them the
    /// same way, so the value is frontier-independent.
    pub heap_peak: usize,
}

impl SearchStats {
    /// The observer-facing snapshot of these counters.
    pub fn probe(&self, found: bool) -> SearchProbe {
        SearchProbe {
            expanded: self.expanded as u64,
            relaxed: self.relaxed as u64,
            heap_peak: self.heap_peak as u64,
            found,
        }
    }
}

/// A successful search: a [`Trace`], its cost, and every foreign slot
/// it crosses.
#[derive(Debug, Clone)]
pub struct FoundPath {
    /// The path, from a source to a target.
    pub trace: Trace,
    /// Total path cost under the query's [`CostModel`], interference
    /// penalties included.
    pub cost: u64,
    /// Foreign slots on the path, with their owning net at search time.
    /// Always empty for a hard search; empty means the path is
    /// committable as-is.
    pub crossings: Vec<(NetId, Step)>,
}

/// Reusable scratch memory for repeated searches.
///
/// A single A* call over a `W x H` grid allocates three node-indexed
/// arrays plus a heap; a router makes thousands of such calls over the
/// same grid. The arena keeps the buffers alive between calls and clears
/// them *sparsely* — only the nodes actually touched by the previous
/// search are reset — so the per-call cost is proportional to the search
/// frontier, not the grid.
///
/// A warm arena searches bit-identically to a fresh one: the arena
/// changes where the buffers live, never what [`find_path`] or
/// [`find_path_soft`] computes. One arena may serve grids of different
/// sizes; it grows to the largest seen.
///
/// The arena also owns the open list, and it is the one place that
/// list is chosen: [`SearchArena::new`] uses the bucket queue, and
/// [`SearchArena::with_frontier`] builds the binary-heap reference that
/// parity tests and the fuzzer compare the default against.
///
/// It also holds the target-side pocket flood (see [`find_path`]): one
/// generation-stamped mark per node and the flood's stack, so proving a
/// search hopeless allocates nothing once the arena is warm.
///
/// # Examples
///
/// ```
/// use route_maze::{search, CostModel, SearchArena};
/// use route_model::{NopObserver, ProblemBuilder, PinSide, RouteDb, Step};
/// use route_geom::{Layer, Point};
///
/// let mut b = ProblemBuilder::switchbox(8, 8);
/// b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
/// let problem = b.build()?;
/// let db = RouteDb::new(&problem);
/// let q = search::Query {
///     grid: db.grid(),
///     net: problem.nets()[0].id,
///     sources: vec![Step::new(Point::new(0, 3), Layer::M1)],
///     targets: vec![Step::new(Point::new(7, 3), Layer::M1)],
///     cost: CostModel::default(),
/// };
/// let (fresh, fresh_stats) = search::find_path(&mut SearchArena::new(), &q, &mut NopObserver);
/// let mut warm = SearchArena::new();
/// search::find_path(&mut warm, &q, &mut NopObserver);
/// let (reused, reused_stats) = search::find_path(&mut warm, &q, &mut NopObserver);
/// assert_eq!(fresh.unwrap().trace, reused.unwrap().trace);
/// assert_eq!(fresh_stats, reused_stats);
/// # Ok::<(), route_model::ProblemError>(())
/// ```
#[derive(Debug)]
pub struct SearchArena {
    dist: Vec<u64>,
    prev: Vec<u32>,
    target_mask: Vec<bool>,
    /// Node indices written since the last reset (dist/prev/target_mask).
    touched: Vec<u32>,
    /// The current search's distinct target points, sorted: the
    /// heuristic's domain (it is layer-blind).
    target_points: Vec<Point>,
    frontier: FrontierStore,
    /// Pocket-flood marks: node `i` is flooded iff
    /// `pocket_mark[i] == pocket_stamp`.
    pocket_mark: Vec<u32>,
    /// The current search's generation; never 0 during a search, so a
    /// fresh mark of 0 is never flooded.
    pocket_stamp: u32,
    /// Flooded nodes whose neighbours are not yet examined.
    pocket_stack: Vec<u32>,
}

/// The arena-owned open list, one variant per [`FrontierKind`].
///
/// The size split is deliberate: one long-lived instance per arena, so
/// the bucket calendar's inline bitmap costs nothing to carry and
/// boxing it would put a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FrontierStore {
    Heap(HeapFrontier),
    Buckets(BucketFrontier),
}

impl Default for SearchArena {
    fn default() -> Self {
        SearchArena::new()
    }
}

impl SearchArena {
    /// Creates an empty arena with the default (bucket) frontier;
    /// buffers are sized lazily on first use. Every router builds its
    /// arenas this way.
    pub fn new() -> Self {
        SearchArena::with_frontier(FrontierKind::default())
    }

    /// Creates an empty arena over the given open list. Both kinds
    /// search bit-identically; [`FrontierKind::Heap`] is the reference
    /// that parity tests and the fuzzer check the default against.
    pub fn with_frontier(kind: FrontierKind) -> Self {
        let frontier = match kind {
            FrontierKind::Heap => FrontierStore::Heap(HeapFrontier::new()),
            FrontierKind::Buckets => FrontierStore::Buckets(BucketFrontier::new()),
        };
        SearchArena {
            dist: Vec::new(),
            prev: Vec::new(),
            target_mask: Vec::new(),
            touched: Vec::new(),
            target_points: Vec::new(),
            frontier,
            pocket_mark: Vec::new(),
            pocket_stamp: 0,
            pocket_stack: Vec::new(),
        }
    }

    /// Sets the pocket flood's generation stamp, so tests can drive an
    /// arena across the stamp wraparound without running 2^32 searches.
    #[doc(hidden)]
    pub fn set_pocket_stamp(&mut self, stamp: u32) {
        self.pocket_stamp = stamp;
    }

    /// Clears the previous search's marks and guarantees capacity for
    /// `n_nodes` nodes.
    fn reset(&mut self, n_nodes: usize) {
        for &idx in &self.touched {
            let idx = idx as usize;
            self.dist[idx] = u64::MAX;
            self.prev[idx] = NO_PREV;
            self.target_mask[idx] = false;
        }
        self.touched.clear();
        self.target_points.clear();
        match &mut self.frontier {
            FrontierStore::Heap(f) => f.clear(),
            FrontierStore::Buckets(f) => f.clear(),
        }
        if self.dist.len() < n_nodes {
            self.dist.resize(n_nodes, u64::MAX);
            self.prev.resize(n_nodes, NO_PREV);
            self.target_mask.resize(n_nodes, false);
        }
        // A new generation unmarks every node at once; only the wrap
        // back to 0 pays for a sweep.
        self.pocket_stack.clear();
        self.pocket_stamp = self.pocket_stamp.wrapping_add(1);
        if self.pocket_stamp == 0 {
            self.pocket_mark.fill(0);
            self.pocket_stamp = 1;
        }
        if self.pocket_mark.len() < n_nodes {
            self.pocket_mark.resize(n_nodes, 0);
        }
    }
}

/// Finds a minimum-cost path using only cells that are free or already
/// owned by the queried net, in the scratch buffers (and frontier) of
/// `arena`.
///
/// Returns `None` when no such path exists (or the source/target sets are
/// empty after dropping unusable slots). The effort counters come back
/// either way, and the search is reported to `obs` via
/// [`RouteObserver::on_search_done`]; the observer only watches.
///
/// A failed search costs about the smaller of its two sides. Alongside the A*
/// from the sources, a flood from the targets crosses one slot for each
/// node the A* settles, over exactly the slots the A* may enter. When
/// the flood runs dry before it touches a slot the A* has reached, the
/// targets sit in a pocket no source can reach and the search returns
/// `None` at once. The flood never writes the A*'s distances, so every
/// path and cost is the one a plain A* returns; only the effort
/// counters of failed searches shrink. Both searches, and both
/// frontiers, share this one core.
pub fn find_path(
    arena: &mut SearchArena,
    query: &Query<'_>,
    obs: &mut dyn RouteObserver,
) -> (Option<FoundPath>, SearchStats) {
    run(arena, query, None, obs)
}

/// Like [`find_path`], but the path may also cross slots occupied by
/// other nets, paying `soft(point, layer, owner)` extra per crossed
/// slot. A return of `None` from the closure marks that slot impassable
/// (e.g. a foreign pin, which can never be moved out of the way).
///
/// The returned [`FoundPath::crossings`] lists every foreign slot on the
/// chosen path — the candidates for weak or strong modification.
pub fn find_path_soft(
    arena: &mut SearchArena,
    query: &Query<'_>,
    soft: &dyn Fn(Point, Layer, NetId) -> Option<u64>,
    obs: &mut dyn RouteObserver,
) -> (Option<FoundPath>, SearchStats) {
    run(arena, query, Some(soft), obs)
}

const NO_PREV: u32 = u32::MAX;

/// The index of slot `(p, layer)` in every node-indexed array of a
/// search over `grid`: row-major cells, [`NUM_LAYERS`] slots per cell.
/// Callers that keep their own per-slot planes (the rip-up router's
/// foreign-pin bits) index them the same way.
#[inline]
pub fn node_index(grid: &Grid, p: Point, layer: Layer) -> usize {
    (p.y as usize * grid.width() as usize + p.x as usize) * NUM_LAYERS + layer.index()
}

#[inline]
fn node_point(grid: &Grid, idx: usize) -> (Point, Layer) {
    let layer = Layer::from_index(idx % NUM_LAYERS);
    let cell = idx / NUM_LAYERS;
    let w = grid.width() as usize;
    (Point::new((cell % w) as i32, (cell / w) as i32), layer)
}

/// Cost of entering `(p, layer)` for `net`, or `None` if impassable.
fn enter_cost(
    grid: &Grid,
    net: NetId,
    p: Point,
    layer: Layer,
    soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
) -> Option<u64> {
    if !grid.in_bounds(p) {
        return None;
    }
    match grid.occupant(p, layer) {
        Occupant::Free => Some(0),
        Occupant::Net(owner) if owner == net => Some(0),
        Occupant::Net(owner) => soft.and_then(|f| f(p, layer, owner)),
        Occupant::Blocked => None,
    }
}

/// The mutable node-indexed scratch of one search, destructured out of
/// the arena so the core can be monomorphized per [`Frontier`].
struct Scratch<'a> {
    dist: &'a mut [u64],
    prev: &'a mut [u32],
    target_mask: &'a mut [bool],
    touched: &'a mut Vec<u32>,
    target_points: &'a mut Vec<Point>,
    pocket: Pocket<'a>,
}

/// The target-side flood of one search: the marks and stack it borrows
/// from the arena, plus the generation that counts as marked.
struct Pocket<'a> {
    mark: &'a mut [u32],
    stamp: u32,
    stack: &'a mut Vec<u32>,
}

/// What one step of the pocket flood learned.
#[derive(PartialEq, Eq)]
enum Flood {
    /// Nothing yet: the flood goes on.
    Open,
    /// The flood touched a slot the A* has reached: a path exists.
    Met,
    /// The flood ran out of slots: no source reaches a target.
    Dry,
}

impl Pocket<'_> {
    /// Floods `idx`: marks it and queues it, unless it is marked
    /// already. Reports [`Flood::Met`] when the A* has touched it.
    #[inline]
    fn enter(&mut self, idx: usize, dist: &[u64]) -> Flood {
        if self.mark[idx] == self.stamp {
            return Flood::Open;
        }
        self.mark[idx] = self.stamp;
        if dist[idx] != u64::MAX {
            return Flood::Met;
        }
        self.stack.push(idx as u32);
        Flood::Open
    }
}

/// The search core: returns the effort counters even when no path
/// exists, and reports every search, found or not, to `obs`.
///
/// Dispatches once on the arena's frontier store, so the inner loop is
/// monomorphic — no virtual calls per push/pop.
fn run(
    arena: &mut SearchArena,
    query: &Query<'_>,
    soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
    obs: &mut dyn RouteObserver,
) -> (Option<FoundPath>, SearchStats) {
    let grid = query.grid;
    arena.reset(grid.width() as usize * grid.height() as usize * NUM_LAYERS);
    let SearchArena {
        dist,
        prev,
        target_mask,
        touched,
        target_points,
        frontier,
        pocket_mark,
        pocket_stamp,
        pocket_stack,
    } = arena;
    let pocket = Pocket { mark: pocket_mark, stamp: *pocket_stamp, stack: pocket_stack };
    let scratch = Scratch { dist, prev, target_mask, touched, target_points, pocket };
    let (found, stats) = match frontier {
        FrontierStore::Heap(f) => run_core(query, soft, scratch, f),
        FrontierStore::Buckets(f) => run_core(query, soft, scratch, f),
    };
    let kind = if soft.is_some() { SearchKind::Soft } else { SearchKind::Hard };
    obs.on_search_done(query.net, kind, stats.probe(found.is_some()));
    (found, stats)
}

fn run_core<F: Frontier>(
    query: &Query<'_>,
    soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
    scratch: Scratch<'_>,
    frontier: &mut F,
) -> (Option<FoundPath>, SearchStats) {
    let grid = query.grid;
    let Scratch { dist, prev, target_mask, touched, target_points, mut pocket } = scratch;
    let mut stats = SearchStats::default();

    let usable = |s: &Step| grid.admits(s.at, s.layer, query.net);
    let targets = query.targets.iter().filter(|s| usable(s));
    for t in targets.clone() {
        let idx = node_index(grid, t.at, t.layer);
        target_mask[idx] = true;
        touched.push(idx as u32);
        target_points.push(t.at);
    }
    if target_points.is_empty() {
        return (None, stats);
    }
    // Min-manhattan-to-any-target heuristic. It is layer-blind, so it
    // ranges over the distinct target points only: slots stacked on one
    // point, and the same slot listed twice, count once.
    target_points.sort_unstable();
    target_points.dedup();
    let step_w = query.cost.step as u64;
    let heuristic = |p: Point| -> u64 {
        target_points.iter().map(|&t| p.manhattan(t) as u64 * step_w).min().unwrap_or(0)
    };

    // Open list keyed by f = g + h. Among equal f, both frontiers pop
    // the smallest g first: the shallowest node, nearest the sources.
    let mut any_source = false;
    for s in query.sources.iter().filter(|s| usable(s)) {
        let idx = node_index(grid, s.at, s.layer);
        if dist[idx] == u64::MAX {
            dist[idx] = 0;
            touched.push(idx as u32);
            frontier.push(heuristic(s.at), 0, idx as u32);
        }
        any_source = true;
    }
    if !any_source {
        return (None, stats);
    }
    stats.heap_peak = frontier.len();
    // Seed the pocket flood with the targets, now that every source
    // carries its distance.
    let mut flooding = true;
    for t in targets {
        if pocket.enter(node_index(grid, t.at, t.layer), dist) == Flood::Met {
            flooding = false;
        }
    }

    let view = grid.occupancy_view();
    let w = grid.width() as usize;
    // Node-index deltas for a wire step, in Dir::ALL order; only applied
    // after the neighbor is proven in bounds.
    let node_delta: [i64; 4] = [
        (w * NUM_LAYERS) as i64,
        -((w * NUM_LAYERS) as i64),
        NUM_LAYERS as i64,
        -(NUM_LAYERS as i64),
    ];

    let mut reached: Option<usize> = None;
    while let Some((_f, g, idx)) = frontier.pop() {
        let idx = idx as usize;
        if g > dist[idx] {
            continue; // stale entry
        }
        stats.expanded += 1;
        if target_mask[idx] {
            reached = Some(idx);
            break;
        }
        let (p, layer) = node_point(grid, idx);
        if flooding {
            match flood_step(grid, query.net, soft, &view, &node_delta, &mut pocket, dist, p) {
                Flood::Open => {}
                Flood::Met => flooding = false,
                Flood::Dry => return (None, stats),
            }
        }

        // Wire steps in the four directions. A set bit in `free_mask`
        // proves the neighbor is in bounds and free (enter cost 0)
        // from one word fetch, skipping the cell dereference.
        let free_mask = view.neighbor_free_mask(p, layer);
        for (i, dir) in Dir::ALL.iter().enumerate() {
            let np = p.step(*dir);
            stats.relaxed += 1;
            let extra = if free_mask & (1 << i) != 0 {
                0
            } else {
                match enter_cost(grid, query.net, np, layer, soft) {
                    Some(e) => e,
                    None => continue,
                }
            };
            let step_cost = query.cost.step_cost(layer, dir.axis()) as u64;
            let ng = g + step_cost + extra;
            let nidx = (idx as i64 + node_delta[i]) as usize;
            debug_assert_eq!(nidx, node_index(grid, np, layer));
            if ng < dist[nidx] {
                if dist[nidx] == u64::MAX {
                    touched.push(nidx as u32);
                }
                dist[nidx] = ng;
                prev[nidx] = idx as u32;
                frontier.push(ng + heuristic(np), ng, nidx as u32);
                stats.heap_peak = stats.heap_peak.max(frontier.len());
            }
        }

        // Layer changes (vias) to the adjacent layers at the same point.
        for other in layer.adjacent() {
            stats.relaxed += 1;
            let extra = if view.is_free(p, other) {
                Some(0)
            } else {
                enter_cost(grid, query.net, p, other, soft)
            };
            if let Some(extra) = extra {
                let ng = g + query.cost.via as u64 + extra;
                let nidx = idx - layer.index() + other.index();
                debug_assert_eq!(nidx, node_index(grid, p, other));
                if ng < dist[nidx] {
                    if dist[nidx] == u64::MAX {
                        touched.push(nidx as u32);
                    }
                    dist[nidx] = ng;
                    prev[nidx] = idx as u32;
                    frontier.push(ng + heuristic(p), ng, nidx as u32);
                    stats.heap_peak = stats.heap_peak.max(frontier.len());
                }
            }
        }
    }

    let Some(end) = reached else {
        return (None, stats);
    };
    let cost = dist[end];

    // Reconstruct the path source -> target.
    let mut steps_rev: Vec<Step> = Vec::new();
    let mut cur = end;
    loop {
        let (p, layer) = node_point(grid, cur);
        steps_rev.push(Step::new(p, layer));
        if prev[cur] == NO_PREV {
            break;
        }
        cur = prev[cur] as usize;
    }
    steps_rev.reverse();
    let crossings: Vec<(NetId, Step)> = steps_rev
        .iter()
        .filter_map(|s| match grid.occupant(s.at, s.layer) {
            Occupant::Net(owner) if owner != query.net => Some((owner, *s)),
            _ => None,
        })
        .collect();
    let trace = Trace::from_steps(steps_rev).expect("search paths are contiguous");
    (Some(FoundPath { trace, cost, crossings }), stats)
}

/// Advances the pocket flood by one slot: pops a flooded slot and
/// floods every neighbour the A* could enter, by the same wire steps
/// and vias and the same [`enter_cost`] test.
///
/// Whether a slot can be entered depends on that slot alone, so the
/// flood covers exactly the targets' component of the passable-slot
/// graph. The sources are touched before the first settle, so a flood
/// that runs dry without meeting a touched slot has proved that no
/// source shares that component: the A* would exhaust its own side and
/// return `None`.
///
/// The order of the pushes changes only how soon a flood meets the A*,
/// never whether it runs dry: wire steps are pushed farthest from
/// `settled`, the node the A* just settled, first, so the flood's
/// depth-first walk heads for the A*'s region, and vias last, so a
/// layer change is tried before the walk goes on.
#[allow(clippy::too_many_arguments)]
fn flood_step(
    grid: &Grid,
    net: NetId,
    soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
    view: &OccupancyView<'_>,
    node_delta: &[i64; 4],
    pocket: &mut Pocket<'_>,
    dist: &[u64],
    settled: Point,
) -> Flood {
    let Some(idx) = pocket.stack.pop() else {
        return Flood::Dry;
    };
    let idx = idx as usize;
    let (p, layer) = node_point(grid, idx);
    let free_mask = view.neighbor_free_mask(p, layer);
    let mut order = [0, 1, 2, 3];
    order.sort_by_key(|&i| std::cmp::Reverse(p.step(Dir::ALL[i]).manhattan(settled)));
    for i in order {
        let np = p.step(Dir::ALL[i]);
        if free_mask & (1 << i) != 0 || enter_cost(grid, net, np, layer, soft).is_some() {
            let nidx = (idx as i64 + node_delta[i]) as usize;
            if pocket.enter(nidx, dist) == Flood::Met {
                return Flood::Met;
            }
        }
    }
    for other in layer.adjacent() {
        if view.is_free(p, other) || enter_cost(grid, net, p, other, soft).is_some() {
            let nidx = idx - layer.index() + other.index();
            if pocket.enter(nidx, dist) == Flood::Met {
                return Flood::Met;
            }
        }
    }
    if pocket.stack.is_empty() {
        Flood::Dry
    } else {
        Flood::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{NopObserver, PinSide, ProblemBuilder, RouteDb};

    fn grid_with(problem: &route_model::Problem) -> RouteDb {
        RouteDb::new(problem)
    }

    fn simple_problem() -> route_model::Problem {
        let mut b = ProblemBuilder::switchbox(8, 8);
        b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        b.net("b").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        b.build().unwrap()
    }

    /// A hard search in a fresh arena.
    fn hard(q: &Query<'_>) -> Option<FoundPath> {
        find_path(&mut SearchArena::new(), q, &mut NopObserver).0
    }

    /// An interference search in a fresh arena.
    fn soft(q: &Query<'_>, rule: &dyn Fn(Point, Layer, NetId) -> Option<u64>) -> Option<FoundPath> {
        find_path_soft(&mut SearchArena::new(), q, rule, &mut NopObserver).0
    }

    fn query<'a>(grid: &'a Grid, net: NetId, from: Step, to: Step) -> Query<'a> {
        Query { grid, net, sources: vec![from], targets: vec![to], cost: CostModel::default() }
    }

    #[test]
    fn straight_shot_has_minimal_cost() {
        let p = simple_problem();
        let db = grid_with(&p);
        let net = p.nets()[0].id;
        let q = query(
            db.grid(),
            net,
            Step::new(Point::new(0, 3), Layer::M1),
            Step::new(Point::new(7, 3), Layer::M1),
        );
        let found = hard(&q).expect("path exists");
        assert_eq!(found.cost, 7); // 7 unit steps on the preferred axis
        assert_eq!(found.trace.steps().len(), 8);
        assert_eq!(found.trace.via_points().count(), 0);
    }

    #[test]
    fn blocked_straight_line_detours() {
        let mut b = ProblemBuilder::switchbox(8, 8);
        // Wall across row 3 except nothing: full column of obstacles at x=4
        for y in 0..8 {
            b.obstacle(Point::new(4, y));
        }
        b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        let p = b.build().unwrap();
        let db = grid_with(&p);
        let q = query(
            db.grid(),
            p.nets()[0].id,
            Step::new(Point::new(0, 3), Layer::M1),
            Step::new(Point::new(7, 3), Layer::M1),
        );
        assert!(hard(&q).is_none(), "full wall is impassable");
    }

    #[test]
    fn partial_wall_forces_detour() {
        let mut b = ProblemBuilder::switchbox(8, 8);
        for y in 0..7 {
            b.obstacle(Point::new(4, y)); // gap at y=7
        }
        b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        let p = b.build().unwrap();
        let db = grid_with(&p);
        let q = query(
            db.grid(),
            p.nets()[0].id,
            Step::new(Point::new(0, 3), Layer::M1),
            Step::new(Point::new(7, 3), Layer::M1),
        );
        let found = hard(&q).expect("detour through the gap");
        assert!(found.cost > 7);
        assert!(found.trace.steps().iter().any(|s| s.at.y == 7), "passes the gap");
    }

    #[test]
    fn via_used_when_cheaper() {
        // Force a vertical run: M2 is the vertical layer, so the path
        // from an M1 pin going north should via up to M2.
        let mut b = ProblemBuilder::switchbox(3, 10);
        b.net("a").pin_at(Point::new(1, 0), Layer::M1).pin_at(Point::new(1, 9), Layer::M1);
        let p = b.build().unwrap();
        let db = grid_with(&p);
        let q = query(
            db.grid(),
            p.nets()[0].id,
            Step::new(Point::new(1, 0), Layer::M1),
            Step::new(Point::new(1, 9), Layer::M1),
        );
        let found = hard(&q).expect("path exists");
        // 9 wrong-way M1 steps would cost 18; two vias (6) + 9 M2 steps = 15.
        assert_eq!(found.trace.via_points().count(), 2);
        assert_eq!(found.cost, 15);
    }

    #[test]
    fn hard_search_respects_foreign_wiring() {
        let p = simple_problem();
        let mut db = grid_with(&p);
        let (a, bnet) = (p.nets()[0].id, p.nets()[1].id);
        // Route net a straight across row 3 on M1 AND row 3 on M2 to form
        // a full wall for net b... instead: wall both layers at column 4.
        let steps1: Vec<Step> = (0..8).map(|x| Step::new(Point::new(x, 3), Layer::M1)).collect();
        let steps2: Vec<Step> = (0..8).map(|x| Step::new(Point::new(x, 3), Layer::M2)).collect();
        db.commit(a, Trace::from_steps(steps1).unwrap()).unwrap();
        db.commit(a, Trace::from_steps(steps2).unwrap()).unwrap();
        let q = query(
            db.grid(),
            bnet,
            Step::new(Point::new(4, 0), Layer::M2),
            Step::new(Point::new(4, 7), Layer::M2),
        );
        assert!(hard(&q).is_none(), "both layers of row 3 are walls");
    }

    #[test]
    fn soft_search_crosses_with_penalty_and_reports_crossings() {
        let p = simple_problem();
        let mut db = grid_with(&p);
        let (a, bnet) = (p.nets()[0].id, p.nets()[1].id);
        let wall1: Vec<Step> = (0..8).map(|x| Step::new(Point::new(x, 3), Layer::M1)).collect();
        let wall2: Vec<Step> = (0..8).map(|x| Step::new(Point::new(x, 3), Layer::M2)).collect();
        db.commit(a, Trace::from_steps(wall1).unwrap()).unwrap();
        db.commit(a, Trace::from_steps(wall2).unwrap()).unwrap();
        let q = query(
            db.grid(),
            bnet,
            Step::new(Point::new(4, 0), Layer::M2),
            Step::new(Point::new(4, 7), Layer::M2),
        );
        let soft = soft(&q, &|_, _, _| Some(10)).expect("soft path exists");
        assert!(!soft.crossings.is_empty());
        assert!(soft.crossings.iter().all(|(owner, _)| *owner == a));
        assert!(soft.cost >= 10, "penalty paid");
    }

    #[test]
    fn soft_search_honours_impassable_slots() {
        let p = simple_problem();
        let mut db = grid_with(&p);
        let (a, bnet) = (p.nets()[0].id, p.nets()[1].id);
        // Wall both enabled layers (M3 is blocked in two-layer problems).
        for layer in [Layer::M1, Layer::M2] {
            let wall: Vec<Step> = (0..8).map(|x| Step::new(Point::new(x, 3), layer)).collect();
            db.commit(a, Trace::from_steps(wall).unwrap()).unwrap();
        }
        let q = query(
            db.grid(),
            bnet,
            Step::new(Point::new(4, 0), Layer::M2),
            Step::new(Point::new(4, 7), Layer::M2),
        );
        assert!(soft(&q, &|_, _, _| None).is_none());
    }

    #[test]
    fn multi_source_multi_target() {
        let p = simple_problem();
        let db = grid_with(&p);
        let net = p.nets()[0].id;
        let q = Query {
            grid: db.grid(),
            net,
            sources: vec![
                Step::new(Point::new(0, 0), Layer::M1),
                Step::new(Point::new(0, 7), Layer::M1),
            ],
            targets: vec![
                Step::new(Point::new(7, 7), Layer::M1),
                Step::new(Point::new(2, 7), Layer::M1),
            ],
            cost: CostModel::default(),
        };
        let found = hard(&q).unwrap();
        // Best pairing: (0,7) -> (2,7), cost 2.
        assert_eq!(found.cost, 2);
    }

    #[test]
    fn source_equal_target_gives_trivial_path() {
        let p = simple_problem();
        let db = grid_with(&p);
        let net = p.nets()[0].id;
        let s = Step::new(Point::new(0, 3), Layer::M1);
        let q = query(db.grid(), net, s, s);
        let found = hard(&q).unwrap();
        assert_eq!(found.cost, 0);
        assert_eq!(found.trace.steps(), &[s]);
    }

    #[test]
    fn unusable_targets_yield_none() {
        let p = simple_problem();
        let db = grid_with(&p);
        let net = p.nets()[0].id;
        // Target is another net's pin slot: not admissible.
        let q = query(
            db.grid(),
            net,
            Step::new(Point::new(0, 3), Layer::M1),
            Step::new(Point::new(4, 0), Layer::M2),
        );
        assert!(hard(&q).is_none());
    }

    #[test]
    fn arena_reuse_is_equivalent_to_fresh_buffers() {
        // One arena across many searches, across two differently-sized
        // grids, with failures interleaved: every result must be
        // bit-identical to the allocate-per-call path.
        let big = simple_problem();
        let mut small_b = ProblemBuilder::switchbox(5, 4);
        small_b.net("s").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 2);
        let small = small_b.build().unwrap();
        let big_db = grid_with(&big);
        let small_db = grid_with(&small);
        let mut arena = SearchArena::new();

        let cases: Vec<(&RouteDb, NetId, Step, Step)> = vec![
            (
                &big_db,
                big.nets()[0].id,
                Step::new(Point::new(0, 3), Layer::M1),
                Step::new(Point::new(7, 3), Layer::M1),
            ),
            (
                &big_db,
                big.nets()[1].id,
                Step::new(Point::new(4, 0), Layer::M2),
                Step::new(Point::new(4, 7), Layer::M2),
            ),
            // Unusable target: the fresh path returns None; the arena
            // path must too, and must stay clean for the next case.
            (
                &big_db,
                big.nets()[0].id,
                Step::new(Point::new(0, 3), Layer::M1),
                Step::new(Point::new(4, 0), Layer::M2),
            ),
            (
                &small_db,
                small.nets()[0].id,
                Step::new(Point::new(0, 1), Layer::M1),
                Step::new(Point::new(4, 2), Layer::M1),
            ),
            (
                &big_db,
                big.nets()[0].id,
                Step::new(Point::new(7, 3), Layer::M1),
                Step::new(Point::new(0, 3), Layer::M1),
            ),
        ];
        for (db, net, from, to) in cases {
            let q = query(db.grid(), net, from, to);
            let (fresh, fresh_stats) = find_path(&mut SearchArena::new(), &q, &mut NopObserver);
            let (reused, reused_stats) = find_path(&mut arena, &q, &mut NopObserver);
            assert_eq!(fresh_stats, reused_stats);
            match (fresh, reused) {
                (None, None) => {}
                (Some(f), Some(r)) => {
                    assert_eq!(f.cost, r.cost);
                    assert_eq!(f.trace.steps(), r.trace.steps());
                }
                (f, r) => panic!("fresh {:?} vs reused {:?}", f.is_some(), r.is_some()),
            }
        }
    }

    #[test]
    fn stats_count_work() {
        let p = simple_problem();
        let db = grid_with(&p);
        let net = p.nets()[0].id;
        let q = query(
            db.grid(),
            net,
            Step::new(Point::new(0, 3), Layer::M1),
            Step::new(Point::new(7, 3), Layer::M1),
        );
        let (found, stats) = find_path(&mut SearchArena::new(), &q, &mut NopObserver);
        assert!(found.is_some());
        assert!(stats.expanded >= 8);
        assert!(stats.relaxed >= stats.expanded);
    }
}
