//! Chip-scale feasibility analysis and static congestion estimation.
//!
//! The flat pass in [`crate::feasibility`] scans every grid cut and
//! floods every net at cell granularity — exact, but quadratic in the
//! floorplan. This module lifts the same sound lower-bound arguments to
//! the *tile* granularity the hierarchical router plans at, so a
//! chip-scale run can be certified unroutable (or a net certified
//! dead-on-arrival) before any per-tile budget is spent:
//!
//! * **F004 — tile-cut saturation**: the grid cut along each tile
//!   boundary, checked exactly like a flat density cut (all layers,
//!   pins of non-crossing nets excluded). Only `cols + rows - 2` cuts
//!   are examined instead of `width + height - 2`.
//! * **F005 — seam saturation**: a *bridge* of the tile graph is the
//!   only corridor between two regions; every net with pins on both
//!   sides must cross it, and distinct nets need distinct boundary cell
//!   pairs. More forced nets than usable pairs is a proof.
//! * **F006 — macro-walled tile region**: flood fill over the tile
//!   graph, where an edge is passable only if at least one facing cell
//!   pair on some layer is unblocked. A net whose pin tiles land in
//!   different components can never connect — at any routing effort.
//!
//! All three arguments are sound for *any* router (they count every
//! layer, not just the crossing layer the hierarchical flow assigns),
//! so a certificate here implies the flat fallback fails too. Each
//! lifts into the same [`InfeasibilityCertificate`] lattice as
//! F001–F003 and replays through the same machinery. The tiles are the
//! router's own [`TileGrid`] and the seam pairs its
//! [`TileGrid::facing`] pairs, so analyzer and router cannot disagree
//! about a tile boundary.
//!
//! Alongside the certificates, [`analyze_chip`] produces a
//! [`CongestionMap`] — the classic static pre-routing estimate: each
//! net's half-perimeter wirelength is spread uniformly over the tiles
//! of its pin bounding box, and compared against each tile's free slot
//! count — plus a per-net [`NetFeatures`] vector (congestion, pin
//! density, bounding-box area, crossing count) that the hierarchical
//! planner can consume for adaptive net ordering.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use route_geom::{Layer, Point, Rect};
use route_model::{Grid, Net, NetId, Occupant, Problem, TileEdge, TileGrid, TileId};

use crate::diag::{sort_diagnostics, Diagnostic, GridSpan};
use crate::feasibility::{Context, CutAxis, InfeasibilityCertificate};

/// Fixed-point scale for the congestion and feature arithmetic: all
/// ratios are reported in units of `1 / SCALE`.
pub const FEATURE_SCALE: u64 = 256;

/// The outcome of [`analyze_chip`]: chip-scale certificates with their
/// diagnostics, the static congestion map, and the per-net features.
#[derive(Debug, Clone)]
pub struct ChipReport {
    certificates: Vec<InfeasibilityCertificate>,
    diagnostics: Vec<Diagnostic>,
    congestion: CongestionMap,
    features: Vec<NetFeatures>,
}

impl ChipReport {
    /// Whether no chip-scale infeasibility proof was found. As with the
    /// flat pass, a feasible verdict is not a routability guarantee.
    pub fn is_feasible(&self) -> bool {
        self.certificates.is_empty()
    }

    /// Every chip-scale infeasibility proof found (F004–F006).
    pub fn certificates(&self) -> &[InfeasibilityCertificate] {
        &self.certificates
    }

    /// The certificates rendered as diagnostics, stably ordered.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The static per-tile congestion estimate.
    pub fn congestion(&self) -> &CongestionMap {
        &self.congestion
    }

    /// Per-net feature vectors, indexed by net id.
    pub fn features(&self) -> &[NetFeatures] {
        &self.features
    }

    /// The nets certified unroutable by name: every net a
    /// [`WalledTileRegion`](InfeasibilityCertificate::WalledTileRegion)
    /// certificate seals in. Cut- and seam-saturation proofs condemn
    /// the instance, not a specific net, so they contribute nothing
    /// here.
    pub fn certified_nets(&self) -> BTreeSet<NetId> {
        self.certificates
            .iter()
            .filter_map(|c| match c {
                InfeasibilityCertificate::WalledTileRegion { net, .. } => Some(*net),
                _ => None,
            })
            .collect()
    }
}

/// The static per-tile congestion estimate: demand from net bounding
/// boxes spread over the tile grid, capacity from free slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionMap {
    grid: TileGrid,
    /// Estimated wirelength demand per tile, row-major, scaled by
    /// [`FEATURE_SCALE`].
    demand: Vec<u64>,
    /// Free `(cell, layer)` slots per tile, row-major, unscaled.
    capacity: Vec<u64>,
}

impl CongestionMap {
    /// The tile grid the map was built on.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    fn index(&self, col: u32, row: u32) -> usize {
        (row * self.grid.cols() + col) as usize
    }

    /// Estimated demand routed through tile `(col, row)`, scaled by
    /// [`FEATURE_SCALE`].
    pub fn demand_at(&self, col: u32, row: u32) -> u64 {
        self.demand[self.index(col, row)]
    }

    /// Free `(cell, layer)` slots of tile `(col, row)`.
    pub fn capacity_at(&self, col: u32, row: u32) -> u64 {
        self.capacity[self.index(col, row)]
    }

    /// Estimated utilisation of tile `(col, row)` in percent: demand
    /// over capacity, saturating on fully blocked tiles.
    pub fn congestion_at(&self, col: u32, row: u32) -> u64 {
        let i = self.index(col, row);
        if self.capacity[i] == 0 {
            return if self.demand[i] == 0 { 0 } else { u64::MAX };
        }
        self.demand[i] * 100 / (FEATURE_SCALE * self.capacity[i])
    }

    /// The most congested tile and its utilisation percent (row-major
    /// first maximum).
    pub fn peak(&self) -> (u32, u32, u64) {
        let mut best = (0, 0, 0);
        for t in self.grid.tiles() {
            let c = self.congestion_at(t.col, t.row);
            if c > best.2 {
                best = (t.col, t.row, c);
            }
        }
        best
    }
}

/// Static features of one net over the tile grid, all in fixed-point
/// units of [`FEATURE_SCALE`] where ratios are involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFeatures {
    /// The net the features describe.
    pub net: NetId,
    /// Peak estimated congestion (percent) over the tiles of the net's
    /// pin bounding box.
    pub congestion: u64,
    /// Pins per bounding-box cell, scaled by [`FEATURE_SCALE`].
    pub pin_density: u64,
    /// Pin bounding-box area in cells.
    pub bbox_area: u64,
    /// Tile boundaries the pin bounding box spans (a lower bound on the
    /// crossings the hierarchical plan must assign).
    pub crossings: u64,
}

/// Runs the chip-scale analysis at tile size `tile`: F004–F006
/// certificates, the congestion map, and the per-net features.
///
/// # Panics
///
/// Panics if `tile` is zero.
///
/// # Examples
///
/// A net split by a full-stack wall is caught at tile granularity
/// without a cell-level flood:
///
/// ```
/// use route_geom::{Point, Rect};
/// use route_model::{PinSide, ProblemBuilder};
///
/// let mut b = ProblemBuilder::switchbox(24, 8);
/// b.obstacle_rect(Rect::with_size(Point::new(7, 0), 2, 8));
/// b.net("cut").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
/// let problem = b.build().unwrap();
/// let report = route_analyze::analyze_chip(&problem, 8);
/// assert!(!report.is_feasible());
/// assert_eq!(report.certified_nets().len(), 1);
/// ```
pub fn analyze_chip(problem: &Problem, tile: u32) -> ChipReport {
    let chip = ChipContext::new(problem, tile);
    let flat = Context::new(problem);
    let mut certificates = Vec::new();

    // F004: the grid cut along every tile boundary, columns then rows.
    for boundary in 0..chip.grid.cols().saturating_sub(1) {
        if let Some(cert) = chip.cut_certificate(&flat, CutAxis::Vertical, boundary) {
            certificates.push(cert);
        }
    }
    for boundary in 0..chip.grid.rows().saturating_sub(1) {
        if let Some(cert) = chip.cut_certificate(&flat, CutAxis::Horizontal, boundary) {
            certificates.push(cert);
        }
    }

    // F005: every bridge of the tile graph, in normalized edge order.
    for edge in chip.bridges() {
        if let Some(cert) = chip.seam_certificate(edge) {
            certificates.push(cert);
        }
    }

    // F006: tile-graph reachability, one certificate per sealed net.
    for net in problem.nets() {
        if net.pins.len() < 2 {
            continue;
        }
        let reached = chip.flood(chip.grid.tile_of(net.pins[0].at));
        let Some(&cut_off) = net.pins.iter().find(|p| !reached.contains(&chip.grid.tile_of(p.at)))
        else {
            continue;
        };
        let island = chip.flood(chip.grid.tile_of(cut_off.at));
        certificates.push(InfeasibilityCertificate::WalledTileRegion {
            tile,
            net: net.id,
            pin: cut_off,
            goal: net.pins[0],
            region: island.len(),
        });
    }

    let congestion = congestion_map(problem, tile);
    let features = features_from(problem, &congestion);
    let mut diagnostics: Vec<Diagnostic> =
        certificates.iter().map(|c| c.to_diagnostic(problem)).collect();
    sort_diagnostics(&mut diagnostics);
    ChipReport { certificates, diagnostics, congestion, features }
}

/// Builds the static congestion map alone (no certificate search).
///
/// # Panics
///
/// Panics if `tile` is zero.
pub fn congestion_map(problem: &Problem, tile: u32) -> CongestionMap {
    let grid = TileGrid::new(problem, tile);
    let tiles = (grid.cols() * grid.rows()) as usize;
    let mut map = CongestionMap { grid, demand: vec![0; tiles], capacity: vec![0; tiles] };
    let base = problem.base_grid();
    let layers = problem.layers() as usize;
    for p in base.bounds().cells() {
        let t = map.grid.tile_of(p);
        for layer in Layer::ALL.into_iter().take(layers) {
            if base.occupant(p, layer) != Occupant::Blocked {
                let i = map.index(t.col, t.row);
                map.capacity[i] += 1;
            }
        }
    }

    // RUDY-style spread: each net's half-perimeter wirelength estimate
    // is distributed uniformly over the tiles its pin bounding box
    // touches.
    for net in problem.nets() {
        let Some(bbox) = pin_bbox(net) else { continue };
        let (lo, hi) = (map.grid.tile_of(bbox.min()), map.grid.tile_of(bbox.max()));
        let hpwl = u64::from(bbox.width() + bbox.height());
        let spread = u64::from(hi.col - lo.col + 1) * u64::from(hi.row - lo.row + 1);
        let share = FEATURE_SCALE * hpwl / spread;
        for row in lo.row..=hi.row {
            for col in lo.col..=hi.col {
                let i = map.index(col, row);
                map.demand[i] += share;
            }
        }
    }
    map
}

/// The bounding box of a net's pins; `None` for a pinless net.
fn pin_bbox(net: &Net) -> Option<Rect> {
    let first = net.pins.first()?;
    Some(net.pins.iter().fold(Rect::cell(first.at), |acc, p| acc.union(&Rect::cell(p.at))))
}

/// Computes the per-net feature vectors at tile size `tile`, indexed by
/// net id. This is the feature source the hierarchical planner's
/// adaptive ordering consumes.
///
/// # Panics
///
/// Panics if `tile` is zero.
pub fn net_features(problem: &Problem, tile: u32) -> Vec<NetFeatures> {
    features_from(problem, &congestion_map(problem, tile))
}

fn features_from(problem: &Problem, map: &CongestionMap) -> Vec<NetFeatures> {
    problem
        .nets()
        .iter()
        .map(|net| {
            let Some(bbox) = pin_bbox(net) else {
                return NetFeatures {
                    net: net.id,
                    congestion: 0,
                    pin_density: 0,
                    bbox_area: 0,
                    crossings: 0,
                };
            };
            let (lo, hi) = (map.grid.tile_of(bbox.min()), map.grid.tile_of(bbox.max()));
            let mut congestion = 0;
            for row in lo.row..=hi.row {
                for col in lo.col..=hi.col {
                    congestion = congestion.max(map.congestion_at(col, row));
                }
            }
            let bbox_area = bbox.area();
            NetFeatures {
                net: net.id,
                congestion,
                pin_density: FEATURE_SCALE * net.pins.len() as u64 / bbox_area.max(1),
                bbox_area,
                crossings: u64::from(hi.col - lo.col) + u64::from(hi.row - lo.row),
            }
        })
        .collect()
}

/// Re-derives a chip-scale certificate's witness; the dispatch target
/// of [`InfeasibilityCertificate::replay`] for F004–F006.
pub(crate) fn replay_chip(cert: &InfeasibilityCertificate, problem: &Problem) -> bool {
    match cert {
        InfeasibilityCertificate::TileCutSaturated {
            tile,
            axis,
            boundary,
            crossing,
            demand,
            capacity,
        } => {
            if *tile == 0 {
                return false;
            }
            let grid = TileGrid::new(problem, *tile);
            let limit = match axis {
                CutAxis::Vertical => grid.cols(),
                CutAxis::Horizontal => grid.rows(),
            };
            if *boundary + 1 >= limit {
                return false;
            }
            let index = ((*boundary + 1) * *tile) as i32 - 1;
            let Some(cut) = Context::new(problem).cut(*axis, index) else {
                return false;
            };
            cut.crossing == *crossing
                && *demand == crossing.len()
                && cut.capacity == *capacity
                && cut.crossing.len() > cut.capacity
        }
        InfeasibilityCertificate::SeamSaturated { tile, a, b, forced, demand, capacity } => {
            if *tile == 0 {
                return false;
            }
            let chip = ChipContext::new(problem, *tile);
            if !in_grid(&chip.grid, *a) || !in_grid(&chip.grid, *b) {
                return false;
            }
            let Some((derived_forced, derived_capacity)) =
                chip.seam_demand(TileEdge { a: *a, b: *b })
            else {
                return false;
            };
            derived_forced == *forced
                && *demand == forced.len()
                && derived_capacity == *capacity
                && forced.len() > derived_capacity
        }
        InfeasibilityCertificate::WalledTileRegion { tile, net, pin, goal, region } => {
            if *tile == 0 {
                return false;
            }
            let Some(pins) = problem.nets().get(net.index()).map(|n| n.pins.as_slice()) else {
                return false;
            };
            if !pins.contains(pin) || !pins.contains(goal) || pin == goal {
                return false;
            }
            let chip = ChipContext::new(problem, *tile);
            let island = chip.flood(chip.grid.tile_of(pin.at));
            island.len() == *region && !island.contains(&chip.grid.tile_of(goal.at))
        }
        _ => false,
    }
}

/// The grid span of the boundary segment between two adjacent tiles,
/// used when rendering F005 diagnostics. `None` on malformed witnesses.
pub(crate) fn seam_span(problem: &Problem, tile: u32, a: TileId, b: TileId) -> Option<GridSpan> {
    if tile == 0 {
        return None;
    }
    let grid = TileGrid::new(problem, tile);
    if !in_grid(&grid, a) || !in_grid(&grid, b) {
        return None;
    }
    let pairs: Vec<_> = grid.facing(TileEdge { a, b }).collect();
    let (&(from, _), &(_, to)) = (pairs.first()?, pairs.last()?);
    Some(GridSpan::area(from, to))
}

/// Whether `t` is a tile of `grid` (certificates are untrusted input).
fn in_grid(grid: &TileGrid, t: TileId) -> bool {
    t.col < grid.cols() && t.row < grid.rows()
}

/// The tile graph of a problem over the hierarchical router's own
/// [`TileGrid`]. Two adjacent tiles are linked when some facing cell
/// pair is unblocked on *some* layer: a feasibility proof must bind the
/// flat fallback too, not just the crossing layer the hierarchical flow
/// assigns.
struct ChipContext<'a> {
    problem: &'a Problem,
    base: Grid,
    grid: TileGrid,
    /// Adjacency over passable seams, nodes row-major.
    adj: Vec<Vec<usize>>,
}

impl<'a> ChipContext<'a> {
    fn new(problem: &'a Problem, tile: u32) -> Self {
        let grid = TileGrid::new(problem, tile);
        let mut chip = ChipContext { problem, base: problem.base_grid(), grid, adj: Vec::new() };
        let mut adj = vec![Vec::new(); (chip.grid.cols() * chip.grid.rows()) as usize];
        for t in chip.grid.tiles() {
            // Each edge once, from its lower/left tile: right, then above.
            for n in chip.grid.neighbors(t).into_iter().filter(|&n| n > t) {
                if chip.passable(TileEdge { a: t, b: n }) {
                    adj[chip.node(t)].push(chip.node(n));
                    adj[chip.node(n)].push(chip.node(t));
                }
            }
        }
        chip.adj = adj;
        chip
    }

    /// Whether any net could cross `edge`: some facing pair is
    /// unblocked on some layer. Pins do not close a seam — a pin slot is
    /// passable to its owner.
    fn passable(&self, edge: TileEdge) -> bool {
        self.grid.facing(edge).any(|(pa, pb)| {
            Layer::ALL.into_iter().any(|layer| {
                self.base.occupant(pa, layer) != Occupant::Blocked
                    && self.base.occupant(pb, layer) != Occupant::Blocked
            })
        })
    }

    fn node(&self, t: TileId) -> usize {
        (t.row * self.grid.cols() + t.col) as usize
    }

    fn tile_at(&self, node: usize) -> TileId {
        TileId { col: node as u32 % self.grid.cols(), row: node as u32 / self.grid.cols() }
    }

    /// Tiles reachable from `start` through passable seams.
    fn flood(&self, start: TileId) -> HashSet<TileId> {
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([self.node(start)]);
        while let Some(n) = queue.pop_front() {
            for &m in &self.adj[n] {
                if seen.insert(self.tile_at(m)) {
                    queue.push_back(m);
                }
            }
        }
        seen
    }

    /// The bridges of the tile graph, in ascending row-major node order.
    /// Iterative Tarjan lowlink.
    fn bridges(&self) -> Vec<TileEdge> {
        let n = self.adj.len();
        let mut disc = vec![0u32; n];
        let mut low = vec![0u32; n];
        let mut visited = vec![false; n];
        let mut timer = 1u32;
        let mut out: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if visited[root] {
                continue;
            }
            // Stack frames: (node, parent, next-neighbour index).
            let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
            visited[root] = true;
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            while let Some(frame) = stack.last_mut() {
                let (u, parent) = (frame.0, frame.1);
                if frame.2 < self.adj[u].len() {
                    let v = self.adj[u][frame.2];
                    frame.2 += 1;
                    if v == parent {
                        continue;
                    }
                    if visited[v] {
                        low[u] = low[u].min(disc[v]);
                    } else {
                        visited[v] = true;
                        disc[v] = timer;
                        low[v] = timer;
                        timer += 1;
                        stack.push((v, u, 0));
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _, _)) = stack.last() {
                        low[p] = low[p].min(low[u]);
                        if low[u] > disc[p] {
                            out.push((p.min(u), p.max(u)));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.into_iter().map(|(a, b)| TileEdge { a: self.tile_at(a), b: self.tile_at(b) }).collect()
    }

    /// The nets forced through the seam `edge` — their pin tiles are
    /// separated by its removal — and the crossing capacity left to
    /// them. `None` when the seam is not separating or forces no net.
    fn seam_demand(&self, edge: TileEdge) -> Option<(Vec<NetId>, usize)> {
        let side_a = self.half_flood(edge.a, edge.b)?;
        let side_b = self.half_flood(edge.b, edge.a)?;
        let forced: Vec<NetId> = self
            .problem
            .nets()
            .iter()
            .filter(|net| {
                let mut in_a = false;
                let mut in_b = false;
                for pin in &net.pins {
                    let t = self.grid.tile_of(pin.at);
                    in_a |= side_a.contains(&t);
                    in_b |= side_b.contains(&t);
                }
                in_a && in_b
            })
            .map(|net| net.id)
            .collect();
        if forced.is_empty() {
            return None;
        }
        // Capacity: pairs on the seam usable by a forced net — both
        // cells unblocked on the layer and owned by no other net's pin.
        let forced_set: HashSet<NetId> = forced.iter().copied().collect();
        let pin_owner: HashMap<(Point, Layer), NetId> = self
            .problem
            .nets()
            .iter()
            .flat_map(|n| n.pins.iter().map(move |p| ((p.at, p.layer), n.id)))
            .collect();
        let mut capacity = 0usize;
        for (pa, pb) in self.grid.facing(edge) {
            for layer in Layer::ALL {
                let usable = [pa, pb].iter().all(|&p| {
                    self.base.occupant(p, layer) != Occupant::Blocked
                        && pin_owner.get(&(p, layer)).is_none_or(|owner| forced_set.contains(owner))
                });
                if usable {
                    capacity += 1;
                }
            }
        }
        Some((forced, capacity))
    }

    /// Flood from `a` with the seam `(a, b)` removed; `None` when `b`
    /// is still reachable (the seam is not a bridge).
    fn half_flood(&self, a: TileId, b: TileId) -> Option<HashSet<TileId>> {
        let (na, nb) = (self.node(a), self.node(b));
        let mut seen = HashSet::from([a]);
        let mut queue = VecDeque::from([na]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if (u == na && v == nb) || (u == nb && v == na) {
                    continue;
                }
                if seen.insert(self.tile_at(v)) {
                    if v == nb {
                        return None;
                    }
                    queue.push_back(v);
                }
            }
        }
        Some(seen)
    }

    /// F004 check for one tile boundary: the flat density argument on
    /// the grid cut the boundary induces.
    fn cut_certificate(
        &self,
        flat: &Context<'_>,
        axis: CutAxis,
        boundary: u32,
    ) -> Option<InfeasibilityCertificate> {
        let index = ((boundary + 1) * self.grid.tile()) as i32 - 1;
        let cut = flat.cut(axis, index)?;
        (cut.crossing.len() > cut.capacity).then_some(InfeasibilityCertificate::TileCutSaturated {
            tile: self.grid.tile(),
            axis,
            boundary,
            demand: cut.crossing.len(),
            crossing: cut.crossing,
            capacity: cut.capacity,
        })
    }

    /// F005 check for one bridge seam.
    fn seam_certificate(&self, edge: TileEdge) -> Option<InfeasibilityCertificate> {
        let (forced, capacity) = self.seam_demand(edge)?;
        (forced.len() > capacity).then_some(InfeasibilityCertificate::SeamSaturated {
            tile: self.grid.tile(),
            a: edge.a,
            b: edge.b,
            demand: forced.len(),
            forced,
            capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{PinSide, ProblemBuilder};

    /// A 24x8 board split into three 8-wide tiles by two walls, each
    /// leaving `gap` rows open on both layers.
    fn walled(gap: i32, nets: u32) -> Problem {
        let mut b = ProblemBuilder::switchbox(24, 8);
        for x in [7, 8, 15, 16] {
            for y in gap..8 {
                b.obstacle(Point::new(x, y));
            }
        }
        for i in 0..nets {
            b.net(format!("n{i}")).pin_side(PinSide::Left, i % 8).pin_side(PinSide::Right, i % 8);
        }
        b.build().unwrap()
    }

    #[test]
    fn roomy_chips_are_feasible() {
        let report = analyze_chip(&walled(8, 4), 8);
        assert!(report.is_feasible(), "{:?}", report.certificates());
        assert!(report.diagnostics().is_empty());
    }

    #[test]
    fn saturated_tile_cut_yields_f004_that_replays() {
        // 2 open rows x 2 layers = 4 pairs per boundary, 5 crossing nets.
        let p = walled(2, 5);
        let report = analyze_chip(&p, 8);
        let f004: Vec<_> = report
            .certificates()
            .iter()
            .filter(|c| matches!(c, InfeasibilityCertificate::TileCutSaturated { .. }))
            .collect();
        assert_eq!(f004.len(), 2, "both walls saturate: {:?}", report.certificates());
        match f004[0] {
            InfeasibilityCertificate::TileCutSaturated {
                tile,
                axis,
                boundary,
                demand,
                capacity,
                ..
            } => {
                assert_eq!((*tile, *axis, *boundary), (8, CutAxis::Vertical, 0));
                assert_eq!((*demand, *capacity), (5, 4));
            }
            _ => unreachable!(),
        }
        for c in report.certificates() {
            assert!(c.replay(&p), "must replay: {c:?}");
        }
        // The same witness is a lie about the unchoked board.
        assert!(!f004[0].replay(&walled(8, 5)));
    }

    #[test]
    fn walled_tile_region_yields_f006_that_replays() {
        // Fully sealed centre column: the right bank is a separate
        // tile-graph component.
        let p = walled(0, 2);
        let report = analyze_chip(&p, 8);
        let f006: Vec<_> = report
            .certificates()
            .iter()
            .filter(|c| matches!(c, InfeasibilityCertificate::WalledTileRegion { .. }))
            .collect();
        assert_eq!(f006.len(), 2, "{:?}", report.certificates());
        match f006[0] {
            InfeasibilityCertificate::WalledTileRegion { tile, net, region, .. } => {
                assert_eq!(*tile, 8);
                assert_eq!(*net, NetId(0));
                assert_eq!(*region, 1, "the right bank is one tile");
            }
            _ => unreachable!(),
        }
        for c in report.certificates() {
            assert!(c.replay(&p));
        }
        assert_eq!(report.certified_nets().len(), 2);
        // Tampered witnesses must not replay.
        if let InfeasibilityCertificate::WalledTileRegion { tile, net, pin, goal, region } = f006[0]
        {
            let forged = InfeasibilityCertificate::WalledTileRegion {
                tile: *tile,
                net: *net,
                pin: *pin,
                goal: *goal,
                region: region + 1,
            };
            assert!(!forged.replay(&p));
        }
    }

    #[test]
    fn bridge_seam_with_forced_overflow_yields_f005_that_replays() {
        // A 24x16 board, tile 8: wall the x = 7/8 boundary fully except
        // in the bottom tile row, where one pair stays open on M1 only;
        // three nets must all cross there.
        let mut b = ProblemBuilder::switchbox(24, 16);
        for x in [7, 8] {
            for y in 1..16 {
                b.obstacle(Point::new(x, y));
            }
            b.obstacle_on(Point::new(x, 0), Layer::M2);
        }
        for i in 0..3u32 {
            b.net(format!("n{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, i);
        }
        let p = b.build().unwrap();
        let report = analyze_chip(&p, 8);
        let f005: Vec<_> = report
            .certificates()
            .iter()
            .filter(|c| matches!(c, InfeasibilityCertificate::SeamSaturated { .. }))
            .collect();
        assert_eq!(f005.len(), 1, "{:?}", report.certificates());
        match f005[0] {
            InfeasibilityCertificate::SeamSaturated { a, b, demand, capacity, forced, .. } => {
                assert_eq!((*a, *b), (TileId { col: 0, row: 0 }, TileId { col: 1, row: 0 }));
                assert_eq!(*demand, 3);
                assert_eq!(*capacity, 1, "one open pair on M1");
                assert_eq!(forced.len(), 3);
            }
            _ => unreachable!(),
        }
        for c in report.certificates() {
            assert!(c.replay(&p), "must replay: {c:?}");
        }
    }

    #[test]
    fn open_grids_yield_no_seam_certificates() {
        // A 2x2 open tile grid has cycles: no bridges at all.
        let mut b = ProblemBuilder::switchbox(16, 16);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let p = b.build().unwrap();
        assert!(ChipContext::new(&p, 8).bridges().is_empty());
        // A 3x1 corridor is all bridges, but roomy seams never certify.
        let p = walled(8, 4);
        let ctx = ChipContext::new(&p, 8);
        assert_eq!(ctx.bridges().len(), 2);
        for edge in ctx.bridges() {
            assert!(ctx.seam_certificate(edge).is_none());
        }
    }

    #[test]
    fn congestion_map_spreads_demand_over_the_bbox() {
        let mut b = ProblemBuilder::switchbox(32, 8);
        b.net("long").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("local").pin_at(Point::new(1, 1), Layer::M1).pin_at(Point::new(2, 1), Layer::M1);
        let p = b.build().unwrap();
        let map = congestion_map(&p, 8);
        assert_eq!((map.grid().cols(), map.grid().rows()), (4, 1));
        // The long net spreads over all four tiles; the local net only
        // loads the first.
        assert!(map.demand_at(0, 0) > map.demand_at(1, 0));
        assert_eq!(map.demand_at(1, 0), map.demand_at(2, 0));
        assert_eq!(map.capacity_at(0, 0), 8 * 8 * 2);
        let (pc, pr, _) = map.peak();
        assert_eq!((pc, pr), (0, 0));
    }

    #[test]
    fn net_features_reflect_geometry() {
        let mut b = ProblemBuilder::switchbox(32, 32);
        b.net("wide").pin_side(PinSide::Left, 16).pin_side(PinSide::Right, 16);
        b.net("dense")
            .pin_at(Point::new(1, 1), Layer::M1)
            .pin_at(Point::new(2, 1), Layer::M1)
            .pin_at(Point::new(1, 2), Layer::M1);
        let p = b.build().unwrap();
        let f = net_features(&p, 8);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].net, NetId(0));
        assert_eq!(f[0].crossings, 3, "the wide net spans all four tile columns");
        assert_eq!(f[1].crossings, 0);
        assert!(f[1].pin_density > f[0].pin_density);
        assert!(f[0].bbox_area > f[1].bbox_area);
    }

    #[test]
    fn degenerate_single_tile_chip_is_trivially_feasible() {
        let mut b = ProblemBuilder::switchbox(8, 8);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let p = b.build().unwrap();
        let report = analyze_chip(&p, 16);
        assert!(report.is_feasible());
        let grid = report.congestion().grid();
        assert_eq!((grid.cols(), grid.rows()), (1, 1));
    }
}
