//! Weighted A* path search over the multi-layer occupancy grid.

use route_geom::{Axis, Dir, Layer, Point, NUM_LAYERS};
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

    /// Folds another search's counters into these, for a caller that
    /// runs several: the effort adds up, and the open list's peak is the
    /// larger of the two.
    pub fn absorb(&mut self, other: SearchStats) {
        self.expanded += other.expanded;
        self.relaxed += other.relaxed;
        self.heap_peak = self.heap_peak.max(other.heap_peak);
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
/// A single A* call over a `W x H` grid needs node-indexed distances and
/// marks plus an open list; a router makes thousands of such calls over
/// the same grid. The arena keeps the buffers alive between calls and
/// clears them *sparsely* — only the nodes actually touched by the
/// previous search are reset — so the per-call cost is proportional to
/// the search frontier, not the grid.
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
/// It keeps no predecessor links: a found path is read back from the
/// distances alone (see [`find_path`]). What it holds besides are the
/// floods that prune and bound a search: one generation-stamped mark
/// per node for the target-side flood that proves a search hopeless,
/// one for the hard pockets of an interference search (see
/// [`find_path_soft`]), and their stacks, so neither allocates once the
/// arena is warm.
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
    target_mask: Vec<bool>,
    /// Node indices written since the last reset (dist/target_mask).
    touched: Vec<u32>,
    /// The current search's distinct target points, sorted, each with
    /// its target layers: the domain of both bounds.
    goals: Vec<Goal>,
    frontier: FrontierStore,
    /// Pocket-flood marks: node `i` is flooded iff
    /// `pocket_mark[i] == stamp`.
    pocket_mark: Vec<u32>,
    /// Hard-pocket labels: node `i` carries label `k` of [`SOURCE_SIDE`],
    /// [`TARGET_SIDE`] or [`TARGET_RING`] iff `zone[i] == stamp + k`.
    zone: Vec<u32>,
    /// The current search's generation: a multiple of 4, never 0
    /// during a search, so a fresh mark of 0 carries no label.
    stamp: u32,
    /// Flooded nodes whose neighbours are not yet examined: the
    /// sources' side of the hard-pocket floods, then the target-side
    /// flood of the A*.
    pocket_stack: Vec<u32>,
    /// The targets' side of the hard-pocket floods.
    zone_stack: Vec<u32>,
}

/// Hard-pocket labels, offsets from the generation stamp.
const SOURCE_SIDE: u32 = 0;
const TARGET_SIDE: u32 = 1;
const TARGET_RING: u32 = 2;

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
            target_mask: Vec::new(),
            touched: Vec::new(),
            goals: Vec::new(),
            frontier,
            pocket_mark: Vec::new(),
            zone: Vec::new(),
            stamp: 0,
            pocket_stack: Vec::new(),
            zone_stack: Vec::new(),
        }
    }

    /// Sets the flood marks' generation stamp, so tests can drive an
    /// arena across the stamp wraparound without running 2^30 searches.
    #[doc(hidden)]
    pub fn set_pocket_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }

    /// Clears the previous search's marks and guarantees capacity for
    /// `n_nodes` nodes.
    fn reset(&mut self, n_nodes: usize) {
        for &idx in &self.touched {
            let idx = idx as usize;
            self.dist[idx] = u64::MAX;
            self.target_mask[idx] = false;
        }
        self.touched.clear();
        self.goals.clear();
        match &mut self.frontier {
            FrontierStore::Heap(f) => f.clear(),
            FrontierStore::Buckets(f) => f.clear(),
        }
        if self.dist.len() < n_nodes {
            self.dist.resize(n_nodes, u64::MAX);
            self.target_mask.resize(n_nodes, false);
        }
        // A new generation unmarks every node at once; only the wrap
        // back to 0 pays for a sweep.
        self.pocket_stack.clear();
        self.zone_stack.clear();
        self.stamp = self.stamp.wrapping_add(4) & !3;
        if self.stamp == 0 {
            self.pocket_mark.fill(0);
            self.zone.fill(0);
            self.stamp = 4;
        }
        if self.pocket_mark.len() < n_nodes {
            self.pocket_mark.resize(n_nodes, 0);
            self.zone.resize(n_nodes, 0);
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
/// **The path is a function of the distances.** Of the cheapest
/// target slots the path ends at the lowest-indexed one, and from each
/// slot `v` it steps back to the neighbour `u` with
/// `dist(u) + c(u→v) = dist(v)` that is least by the reference key
/// `(dist(u) + h(u), dist(u), index(u))`, where `h` is the layer-blind
/// Manhattan distance to the nearest target point. That is exactly the
/// predecessor a plain A* under `h` records, so which nodes this search
/// settles, and in what order, never shows in its result.
///
/// That frees the open list to run under a tighter consistent bound:
/// wire steps and vias to the nearest target slot, plus the cheaper of
/// the wrong-way steps and a detour over two vias when the node is on
/// the target's layer. A tighter bound settles fewer nodes and changes
/// only the effort counters.
///
/// A failed search costs about the smaller of its two sides. Alongside the A*
/// from the sources, a flood from the targets crosses one slot for each
/// node the A* settles, over exactly the slots the A* may enter. When
/// the flood runs dry before it touches a slot the A* has reached, the
/// targets sit in a pocket no source can reach and the search returns
/// `None` at once. Both searches, and both frontiers, share this one
/// core.
///
/// The costs must be positive (`step ≥ 1`, `via ≥ 1`; see
/// [`CostModel`]): a distance of 0 then marks a source, which is where
/// reading the path back stops.
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
/// (e.g. a foreign pin, which can never be moved out of the way). The
/// closure must answer the same for the same slot throughout a call.
///
/// The returned [`FoundPath::crossings`] lists every foreign slot on the
/// chosen path — the candidates for weak or strong modification.
///
/// Before the A* starts, two floods over the slots the net may hold
/// without crossing (free or its own) grow in lockstep from the sources
/// and from the targets. If they meet, the search runs as
/// [`find_path`] does. Otherwise the side whose *hard pocket* closes
/// first prices every path: each must cross that pocket's boundary, so
/// it pays at least the cheapest crossing `B` on it. The open-list
/// bound then adds `B` to every node that has yet to cross — inside
/// the sources' pocket, or outside the targets' pocket and its boundary
/// ring. A boundary with no slot the closure admits proves the search
/// hopeless before it settles a node. The floods keep nothing across
/// calls, and the path is the one [`find_path`]'s reference key picks.
pub fn find_path_soft(
    arena: &mut SearchArena,
    query: &Query<'_>,
    soft: &dyn Fn(Point, Layer, NetId) -> Option<u64>,
    obs: &mut dyn RouteObserver,
) -> (Option<FoundPath>, SearchStats) {
    run(arena, query, Some(soft), obs)
}

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

/// One distinct target point of a search and the layers it is a target
/// on.
#[derive(Debug, Clone, Copy)]
struct Goal {
    at: Point,
    /// Bit `l` is set iff `(at, Layer l)` is a target slot.
    on: u8,
    /// For a node on layer `l`, the least layer cost of ending on this
    /// point: `via·|Δlayer|` to the nearest target layer other than
    /// `l`, capped at `2·via` (leave the layer and come back) when `l`
    /// is a target layer itself.
    cap: [u64; NUM_LAYERS],
}

/// Collects the distinct target points of `slots` into `goals`, sorted,
/// with the layer costs of `cost`.
fn gather_goals(goals: &mut Vec<Goal>, slots: impl Iterator<Item = Step>, cost: &CostModel) {
    goals.extend(slots.map(|s| Goal { at: s.at, on: 1 << s.layer.index(), cap: [0; NUM_LAYERS] }));
    goals.sort_unstable_by_key(|g| g.at);
    goals.dedup_by(|g, kept| {
        let same = g.at == kept.at;
        if same {
            kept.on |= g.on;
        }
        same
    });
    let via = u64::from(cost.via);
    for g in goals.iter_mut() {
        for (l, cap) in g.cap.iter_mut().enumerate() {
            let far = (0..NUM_LAYERS)
                .filter(|&t| t != l && g.on & (1 << t) != 0)
                .map(|t| via * t.abs_diff(l) as u64)
                .min()
                .unwrap_or(u64::MAX);
            *cap = if g.on & (1 << l) != 0 { far.min(2 * via) } else { far };
        }
    }
}

/// The crossing cost an interference search has yet to pay, read off
/// the hard pocket that closed first: `inside` for the nodes whose
/// label lies in `lo..lo + span`, `outside` for every other node.
#[derive(Debug, Clone, Copy)]
struct Lift {
    lo: u32,
    span: u32,
    inside: u64,
    outside: u64,
}

/// The open-list bound of one search: a lower bound on the cost still
/// to pay from a node to the nearest target slot, consistent on every
/// edge the search may take (see [`find_path`], [`find_path_soft`]).
struct Bound<'a> {
    goals: &'a [Goal],
    step: u64,
    wrong_way: u64,
    lift: Option<Lift>,
    zone: &'a [u32],
}

impl Bound<'_> {
    /// The bound at node `idx`, the slot `(p, layer)`.
    #[inline]
    fn at(&self, p: Point, layer: Layer, idx: usize) -> u64 {
        let l = layer.index();
        let across_x = layer.preferred_axis() == Axis::Vertical;
        let wires = self
            .goals
            .iter()
            .map(|g| {
                let dx = u64::from(p.x.abs_diff(g.at.x));
                let dy = u64::from(p.y.abs_diff(g.at.y));
                let layers = if g.on & (1 << l) != 0 {
                    let off = if across_x { dx } else { dy };
                    (self.wrong_way * off).min(g.cap[l])
                } else {
                    g.cap[l]
                };
                self.step * (dx + dy) + layers
            })
            .min()
            .unwrap_or(0);
        wires
            + self.lift.map_or(0, |lift| {
                if self.zone[idx].wrapping_sub(lift.lo) < lift.span {
                    lift.inside
                } else {
                    lift.outside
                }
            })
    }
}

/// Node-index deltas for a wire step over `grid`, in `Dir::ALL` order;
/// only applied after the neighbour is proven in bounds.
fn node_deltas(grid: &Grid) -> [i64; 4] {
    let row = (grid.width() as usize * NUM_LAYERS) as i64;
    [row, -row, NUM_LAYERS as i64, -(NUM_LAYERS as i64)]
}

/// The open-list bound of `query`, whose usable targets `goals` holds:
/// for an interference search, after the hard-pocket floods have run
/// on `zone` with the stamp and stacks of `floods`. `None`
/// when those floods prove the search hopeless.
fn key_bound<'a>(
    query: &Query<'_>,
    soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
    view: &OccupancyView<'_>,
    node_delta: &[i64; 4],
    goals: &'a [Goal],
    zone: &'a mut [u32],
    floods: (u32, &mut Vec<u32>, &mut Vec<u32>),
) -> Option<Bound<'a>> {
    let (stamp, source_stack, target_stack) = floods;
    let mut lift = None;
    if let Some(rule) = soft {
        let grid = query.grid;
        let usable = |s: &&Step| grid.admits(s.at, s.layer, query.net);
        let mut sides = HardPockets {
            grid,
            net: query.net,
            soft: rule,
            view,
            node_delta,
            zone: &mut *zone,
            stamp,
        };
        let sources = query.sources.iter().filter(usable);
        match sides.flood(sources, query.targets.iter().filter(usable), source_stack, target_stack)
        {
            Pockets::Joined => {}
            Pockets::Closed(l) => lift = Some(l),
            Pockets::Sealed => return None,
        }
        source_stack.clear();
    }
    Some(Bound {
        goals,
        step: u64::from(query.cost.step),
        wrong_way: u64::from(query.cost.wrong_way),
        lift,
        zone,
    })
}

/// The reference bound that fixes the tie-break: `step` times the
/// layer-blind Manhattan distance from `p` to the nearest target point.
fn reference_h(goals: &[Goal], step: u64, p: Point) -> u64 {
    goals.iter().map(|g| u64::from(p.manhattan(g.at)) * step).min().unwrap_or(0)
}

/// The mutable node-indexed scratch of one search, destructured out of
/// the arena so the core can be monomorphized per [`Frontier`].
struct Scratch<'a> {
    dist: &'a mut [u64],
    target_mask: &'a mut [bool],
    touched: &'a mut Vec<u32>,
    goals: &'a mut Vec<Goal>,
    pocket: Pocket<'a>,
    zone: &'a mut [u32],
    zone_stack: &'a mut Vec<u32>,
}

/// The target-side flood of one search: the marks and stack it borrows
/// from the arena, plus the generation that counts as marked.
struct Pocket<'a> {
    mark: &'a mut [u32],
    stamp: u32,
    stack: &'a mut Vec<u32>,
}

/// What one step of a flood learned.
#[derive(PartialEq, Eq)]
enum Flood {
    /// Nothing yet: the flood goes on.
    Open,
    /// The flood touched a slot the other side has reached: a path
    /// exists (the pocket flood), or may cost no crossing (the hard
    /// pockets).
    Met,
    /// The flood ran out of slots.
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
        target_mask,
        touched,
        goals,
        frontier,
        pocket_mark,
        zone,
        stamp,
        pocket_stack,
        zone_stack,
    } = arena;
    let pocket = Pocket { mark: pocket_mark, stamp: *stamp, stack: pocket_stack };
    let scratch = Scratch { dist, target_mask, touched, goals, pocket, zone, zone_stack };
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
    debug_assert!(
        query.cost.step >= 1 && query.cost.via >= 1,
        "paths are read back from distances, so every move must cost at least 1: {:?}",
        query.cost
    );
    let grid = query.grid;
    let Scratch { dist, target_mask, touched, goals, mut pocket, zone, zone_stack } = scratch;
    let mut stats = SearchStats::default();

    let usable = |s: &Step| grid.admits(s.at, s.layer, query.net);
    let targets = query.targets.iter().filter(|s| usable(s));
    for t in targets.clone() {
        let idx = node_index(grid, t.at, t.layer);
        target_mask[idx] = true;
        touched.push(idx as u32);
    }
    gather_goals(goals, targets.clone().copied(), &query.cost);
    let sources = query.sources.iter().filter(|s| usable(s));
    if goals.is_empty() || sources.clone().next().is_none() {
        return (None, stats);
    }

    let view = grid.occupancy_view();
    let node_delta = node_deltas(grid);
    let floods = (pocket.stamp, &mut *pocket.stack, zone_stack);
    let Some(bound) = key_bound(query, soft, &view, &node_delta, goals, zone, floods) else {
        return (None, stats);
    };

    // Open list keyed by f = g + bound. Among equal f, both frontiers
    // pop the smallest g first: the shallowest node, nearest the sources.
    for s in sources {
        let idx = node_index(grid, s.at, s.layer);
        if dist[idx] == u64::MAX {
            dist[idx] = 0;
            touched.push(idx as u32);
            frontier.push(bound.at(s.at, s.layer, idx), 0, idx as u32);
        }
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
                frontier.push(ng + bound.at(np, layer, nidx), ng, nidx as u32);
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
                    frontier.push(ng + bound.at(p, other, nidx), ng, nidx as u32);
                    stats.heap_peak = stats.heap_peak.max(frontier.len());
                }
            }
        }
    }

    let Some(end) = reached else {
        return (None, stats);
    };
    let steps = trace_back(query, soft, &view, bound.goals, dist, end);
    let crossings: Vec<(NetId, Step)> = steps
        .iter()
        .filter_map(|s| match grid.occupant(s.at, s.layer) {
            Occupant::Net(owner) if owner != query.net => Some((owner, *s)),
            _ => None,
        })
        .collect();
    let trace = Trace::from_steps(steps).expect("search paths are contiguous");
    (Some(FoundPath { trace, cost: dist[end], crossings }), stats)
}

/// Reads the found path back from the distance field, source first.
///
/// From `end` it steps to the neighbour `u` the A* could have relaxed
/// the current slot `v` from with `dist(u) + c(u→v) = dist(v)`, least
/// by the reference key `(dist(u) + h(u), dist(u), index(u))` of
/// [`reference_h`], until it reaches a source (distance 0). Every such
/// `u` was settled: under a consistent bound its key is below `v`'s.
/// A slot the search touched but did not settle holds at least its true
/// distance, so it passes the test only when that value is exact and
/// it was settled after all. The reference A* pops each such `u` in
/// that key order and keeps the first as `v`'s predecessor, so this is
/// its path.
fn trace_back(
    query: &Query<'_>,
    soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
    view: &OccupancyView<'_>,
    goals: &[Goal],
    dist: &[u64],
    end: usize,
) -> Vec<Step> {
    let grid = query.grid;
    let step = u64::from(query.cost.step);
    let mut steps = Vec::new();
    let mut cur = end;
    loop {
        let (p, layer) = node_point(grid, cur);
        steps.push(Step::new(p, layer));
        if dist[cur] == 0 {
            break;
        }
        let extra = if view.is_free(p, layer) {
            0
        } else {
            enter_cost(grid, query.net, p, layer, soft).expect("a reached slot is enterable")
        };
        let need = dist[cur] - extra;
        let mut best: Option<(u64, u64, usize)> = None;
        let mut offer = |u: usize, at: Point, cost: u64| {
            if dist[u] != u64::MAX && dist[u] + cost == need {
                let key = (dist[u] + reference_h(goals, step, at), dist[u], u);
                best = Some(best.map_or(key, |b| b.min(key)));
            }
        };
        for dir in Dir::ALL {
            let at = p.step(dir);
            if grid.in_bounds(at) {
                let cost = u64::from(query.cost.step_cost(layer, dir.axis()));
                offer(node_index(grid, at, layer), at, cost);
            }
        }
        for other in layer.adjacent() {
            offer(node_index(grid, p, other), p, u64::from(query.cost.via));
        }
        cur = best.expect("a reached slot has a settled predecessor").2;
    }
    steps.reverse();
    steps
}

/// What the hard-pocket floods of an interference search found.
enum Pockets {
    /// The floods met: a path may cross nothing, so no lift applies.
    Joined,
    /// One side's pocket closed; every path pays the lift.
    Closed(Lift),
    /// One side's pocket closed with no enterable slot on its boundary:
    /// no path exists.
    Sealed,
}

/// The fixed inputs of the hard-pocket floods.
struct HardPockets<'a, 'g> {
    grid: &'g Grid,
    net: NetId,
    soft: &'a dyn Fn(Point, Layer, NetId) -> Option<u64>,
    view: &'a OccupancyView<'g>,
    node_delta: &'a [i64; 4],
    zone: &'a mut [u32],
    stamp: u32,
}

/// One side of the hard-pocket floods: its label and the other side's,
/// its stack, the cheapest enterable slot on its boundary so far and,
/// for the targets' side, the label it gives those slots.
struct Side<'a> {
    label: u32,
    other: u32,
    stack: &'a mut Vec<u32>,
    exit: u64,
    ring: Option<u32>,
}

impl HardPockets<'_, '_> {
    /// Grows the sources' and the targets' hard pockets one slot each
    /// in turn until they meet or one closes.
    fn flood<'s>(
        &mut self,
        sources: impl Iterator<Item = &'s Step>,
        targets: impl Iterator<Item = &'s Step>,
        source_stack: &mut Vec<u32>,
        target_stack: &mut Vec<u32>,
    ) -> Pockets {
        let (s_label, t_label) = (self.stamp + SOURCE_SIDE, self.stamp + TARGET_SIDE);
        let mut from = Side {
            label: s_label,
            other: t_label,
            stack: source_stack,
            exit: u64::MAX,
            ring: None,
        };
        let mut to = Side {
            label: t_label,
            other: s_label,
            stack: target_stack,
            exit: u64::MAX,
            ring: Some(self.stamp + TARGET_RING),
        };
        for s in sources {
            let idx = node_index(self.grid, s.at, s.layer);
            if self.zone[idx] != from.label {
                self.zone[idx] = from.label;
                from.stack.push(idx as u32);
            }
        }
        for t in targets {
            let idx = node_index(self.grid, t.at, t.layer);
            if self.enter(&mut to, t.at, t.layer, idx, true) {
                return Pockets::Joined;
            }
        }
        loop {
            for side in [&mut from, &mut to] {
                match self.step(side) {
                    Flood::Open => {}
                    Flood::Met => return Pockets::Joined,
                    Flood::Dry => return self.close(side),
                }
            }
        }
    }

    /// The verdict on a side whose pocket has closed. The targets'
    /// side has labelled its boundary ring as it went, and no flood
    /// labels a slot it cannot hold without crossing, so the ring's
    /// labels still stand.
    fn close(&self, side: &Side<'_>) -> Pockets {
        match (side.exit, side.ring) {
            (u64::MAX, _) => Pockets::Sealed,
            (0, _) => Pockets::Joined,
            (b, None) => Pockets::Closed(Lift { lo: side.label, span: 1, inside: b, outside: 0 }),
            (b, Some(_)) => {
                Pockets::Closed(Lift { lo: side.label, span: 2, inside: 0, outside: b })
            }
        }
    }

    /// Pops one slot of `side` and examines its neighbours: hard slots
    /// join the side, enterable foreign slots lower its exit cost.
    fn step(&mut self, side: &mut Side<'_>) -> Flood {
        let Some(idx) = side.stack.pop() else {
            return Flood::Dry;
        };
        let idx = idx as usize;
        let (p, layer) = node_point(self.grid, idx);
        let free_mask = self.view.neighbor_free_mask(p, layer);
        for (i, dir) in Dir::ALL.iter().enumerate() {
            let np = p.step(*dir);
            if self.grid.in_bounds(np) {
                let nidx = (idx as i64 + self.node_delta[i]) as usize;
                if self.enter(side, np, layer, nidx, free_mask & (1 << i) != 0) {
                    return Flood::Met;
                }
            }
        }
        for up in layer.adjacent() {
            let nidx = idx - layer.index() + up.index();
            if self.enter(side, p, up, nidx, self.view.is_free(p, up)) {
                return Flood::Met;
            }
        }
        if side.stack.is_empty() {
            Flood::Dry
        } else {
            Flood::Open
        }
    }

    /// Offers the in-bounds slot `(at, layer)`, node `idx`, to `side`;
    /// `free` short-cuts the occupancy test. Returns whether it belongs
    /// to the other side.
    fn enter(
        &mut self,
        side: &mut Side<'_>,
        at: Point,
        layer: Layer,
        idx: usize,
        free: bool,
    ) -> bool {
        if free || self.grid.admits(at, layer, self.net) {
            if self.zone[idx] == side.other {
                return true;
            }
            if self.zone[idx] != side.label {
                self.zone[idx] = side.label;
                side.stack.push(idx as u32);
            }
        } else if side.ring != Some(self.zone[idx]) {
            // A ring slot already labelled has been priced.
            if let Occupant::Net(owner) = self.grid.occupant(at, layer) {
                if let Some(c) = (self.soft)(at, layer, owner) {
                    side.exit = side.exit.min(c);
                    if let Some(ring) = side.ring {
                        self.zone[idx] = ring;
                    }
                }
            }
        }
        false
    }
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

    /// A tiny deterministic generator (SplitMix64) for the bound tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (((z ^ (z >> 31)) as u128 * bound as u128) >> 64) as u64
        }

        fn slot(&mut self, w: i32, h: i32) -> Step {
            let p = Point::new(self.below(w as u64) as i32, self.below(h as u64) as i32);
            Step::new(p, Layer::from_index(self.below(NUM_LAYERS as u64) as usize))
        }
    }

    /// Every slot of `grid` with its node index.
    fn slots(grid: &Grid) -> Vec<(Step, usize)> {
        let mut out = Vec::new();
        for p in grid.points() {
            for layer in Layer::ALL {
                out.push((Step::new(p, layer), node_index(grid, p, layer)));
            }
        }
        out
    }

    /// The open-list bound `run_core` keys a search with, at every node,
    /// and whether a pocket lift is part of it; `None` when the hard
    /// pockets alone prove the search hopeless.
    fn bounds(
        arena: &mut SearchArena,
        q: &Query<'_>,
        soft: Option<&dyn Fn(Point, Layer, NetId) -> Option<u64>>,
    ) -> Option<(Vec<u64>, bool)> {
        let grid = q.grid;
        arena.reset(grid.width() as usize * grid.height() as usize * NUM_LAYERS);
        let usable = q.targets.iter().filter(|s| grid.admits(s.at, s.layer, q.net));
        gather_goals(&mut arena.goals, usable.copied(), &q.cost);
        let floods = (arena.stamp, &mut arena.pocket_stack, &mut arena.zone_stack);
        let view = grid.occupancy_view();
        let node_delta = node_deltas(grid);
        let bound = key_bound(q, soft, &view, &node_delta, &arena.goals, &mut arena.zone, floods)?;
        let at = slots(grid).iter().map(|&(s, idx)| bound.at(s.at, s.layer, idx)).collect();
        Some((at, bound.lift.is_some()))
    }

    /// The open-list bound is 0 at every target and never drops by more
    /// than an edge costs, on every edge a search may take (sources are
    /// enterable slots, so these cover them too): hard and
    /// soft, two and three layers, all four cost models of the
    /// workspace, targets walled into pockets with crossings that are
    /// free, cheap, dear or impassable.
    #[test]
    fn bound_is_zero_at_targets_and_consistent_on_every_edge() {
        let models = [
            CostModel::default(),
            CostModel::uniform(),
            CostModel { step: 1, via: 2, wrong_way: 4 },
            CostModel { via: 16, ..CostModel::default() },
        ];
        let own = NetId(0);
        let mut rng = Rng(0xB0_0D);
        let mut arena = SearchArena::new();
        let (mut lifted, mut checked) = (0, 0);
        for case in 0..600 {
            let (w, h) = (3 + rng.below(6) as i32, 3 + rng.below(6) as i32);
            let mut grid = Grid::new(w as u32, h as u32);
            if rng.below(2) == 0 {
                for p in grid.points().collect::<Vec<_>>() {
                    grid.set_occupant(p, Layer::M3, Occupant::Blocked);
                }
            }
            for _ in 0..rng.below((w * h) as u64) {
                let s = rng.slot(w, h);
                let occ = match rng.below(4) {
                    0 => Occupant::Blocked,
                    1 => Occupant::Net(own),
                    _ => Occupant::Net(NetId(1 + rng.below(3) as u32)),
                };
                grid.set_occupant(s.at, s.layer, occ);
            }
            let mut sources: Vec<Step> = (0..1 + rng.below(3)).map(|_| rng.slot(w, h)).collect();
            let mut targets: Vec<Step> = (0..1 + rng.below(3)).map(|_| rng.slot(w, h)).collect();
            if rng.below(4) == 0 {
                let t = targets[0];
                targets.push(Step::new(t.at, Layer::from_index((t.layer.index() + 1) % 3)));
            }
            if rng.below(5) == 0 {
                targets.push(sources[0]);
            }
            // Wall one endpoint into a pocket of foreign wiring (and the
            // odd obstacle) on every layer, most of the time.
            if rng.below(4) != 0 {
                let inside = if rng.below(2) == 0 { &mut sources } else { &mut targets };
                let c = inside[0].at;
                for y in c.y - 1..=c.y + 1 {
                    for x in c.x - 1..=c.x + 1 {
                        let p = Point::new(x, y);
                        if p == c || !grid.in_bounds(p) {
                            continue;
                        }
                        for layer in Layer::ALL {
                            let occ = match rng.below(5) {
                                0 => Occupant::Blocked,
                                k => Occupant::Net(NetId(1 + (k as u32 - 1) % 3)),
                            };
                            grid.set_occupant(p, layer, occ);
                        }
                    }
                }
                for layer in Layer::ALL {
                    grid.set_occupant(c, layer, Occupant::Free);
                }
                inside.truncate(1);
            }
            let cost = models[case % models.len()];
            let q = Query { grid: &grid, net: own, sources, targets, cost };
            let penalty = [rng.below(3), 1 + rng.below(40), 1 + rng.below(40)];
            let barred = NetId(1 + rng.below(3) as u32);
            let rule = move |_: Point, _: Layer, n: NetId| {
                (n != barred).then(|| penalty[n.0 as usize - 1])
            };
            for soft in [None, Some(&rule as &dyn Fn(Point, Layer, NetId) -> Option<u64>)] {
                let Some((b, lift)) = bounds(&mut arena, &q, soft) else { continue };
                lifted += usize::from(lift);
                for t in q.targets.iter().filter(|t| grid.admits(t.at, t.layer, own)) {
                    assert_eq!(b[node_index(&grid, t.at, t.layer)], 0, "case {case}: target {t:?}");
                }
                // Edges out of the slots a search can stand on.
                for &(u, ui) in &slots(&grid) {
                    if enter_cost(&grid, own, u.at, u.layer, soft).is_none() {
                        continue;
                    }
                    let moves = Dir::ALL
                        .iter()
                        .map(|d| {
                            (Step::new(u.at.step(*d), u.layer), cost.step_cost(u.layer, d.axis()))
                        })
                        .chain(u.layer.adjacent().map(|l| (Step::new(u.at, l), cost.via)));
                    for (v, base) in moves {
                        let Some(extra) = enter_cost(&grid, own, v.at, v.layer, soft) else {
                            continue;
                        };
                        let vi = node_index(&grid, v.at, v.layer);
                        assert!(
                            b[ui] <= u64::from(base) + extra + b[vi],
                            "case {case}: bound {} at {u:?} > {base} + {extra} + {} at {v:?}",
                            b[ui],
                            b[vi]
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(lifted > 100 && checked > 100_000, "lifted {lifted}, checked {checked}");
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
