//! Pre-route feasibility analysis over a [`Problem`].
//!
//! Three sound lower-bound arguments run against the blockage map —
//! before any router spends its modification budget:
//!
//! * **Channel density** (after Deutsch): a net with pins on both sides
//!   of the cut between columns `x` and `x + 1` must occupy the cell
//!   pair `(x, y, l)`/`(x + 1, y, l)` for some row `y` and layer `l`,
//!   and distinct crossing nets need distinct pairs. If more nets cross
//!   than unblocked pairs exist, no routing exists. Rows are checked
//!   symmetrically.
//! * **Pin reachability**: flood fill from each net's first pin over
//!   the cells that net may legally occupy; a pin in a different
//!   component can never be connected.
//! * **Terminal access**: the degenerate case — a pin of a multi-pin
//!   net with no admissible neighbouring slot at all is walled in.
//!
//! Each failed check emits an [`InfeasibilityCertificate`] carrying its
//! witness (the saturated cut or the walled-off component), and every
//! certificate is machine-checkable: [`InfeasibilityCertificate::replay`]
//! re-derives the witness from the problem alone, so downstream
//! consumers (the batch engine, the fuzz oracle) can trust — and audit —
//! the claim.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use route_geom::{Layer, Point};
use route_model::{Grid, NetId, Occupant, Pin, Problem, TileId};

use crate::diag::{sort_diagnostics, Diagnostic, GridSpan, Severity};

/// Which family of cuts a density certificate refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutAxis {
    /// The cut between columns `index` and `index + 1`.
    Vertical,
    /// The cut between rows `index` and `index + 1`.
    Horizontal,
}

impl fmt::Display for CutAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CutAxis::Vertical => "columns",
            CutAxis::Horizontal => "rows",
        })
    }
}

/// A machine-checkable proof that a problem admits no complete routing.
///
/// Each variant carries the witness that makes the claim auditable;
/// [`replay`](InfeasibilityCertificate::replay) re-derives it from the
/// problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InfeasibilityCertificate {
    /// More nets must cross a grid cut than it has unblocked cell pairs.
    DensityOverflow {
        /// Whether the cut separates columns or rows.
        axis: CutAxis,
        /// The cut sits between `index` and `index + 1` on `axis`.
        index: i32,
        /// Nets forced across the cut (pins strictly on both sides).
        crossing: Vec<NetId>,
        /// Number of crossing nets (`crossing.len()`).
        demand: usize,
        /// Unblocked `(row-or-column, layer)` cell pairs usable by a
        /// crossing net.
        capacity: usize,
    },
    /// A pin cannot reach another pin of its net by any legal path.
    UnreachablePin {
        /// The fragmented net.
        net: NetId,
        /// The pin that is cut off.
        pin: Pin,
        /// A pin of the same net outside `pin`'s component.
        goal: Pin,
        /// Size in slots of the component flooded from `pin` — the
        /// walled-off region that witnesses the separation.
        component: usize,
    },
    /// A pin of a multi-pin net has no admissible neighbouring slot.
    WalledPin {
        /// The net that can never be completed.
        net: NetId,
        /// The pin with zero escape routes.
        pin: Pin,
    },
    /// More nets must cross a tile-boundary cut than it has unblocked
    /// cell pairs — the chip-scale lift of [`DensityOverflow`]
    /// (emitted by [`analyze_chip`](crate::chip::analyze_chip)).
    ///
    /// [`DensityOverflow`]: InfeasibilityCertificate::DensityOverflow
    TileCutSaturated {
        /// Tile side length the analysis ran at.
        tile: u32,
        /// Whether the cut separates tile columns or tile rows.
        axis: CutAxis,
        /// The cut runs along the boundary after tile column/row
        /// `boundary` (the grid cut between cells
        /// `(boundary + 1) * tile - 1` and `(boundary + 1) * tile`).
        boundary: u32,
        /// Nets forced across the cut (pins strictly on both sides).
        crossing: Vec<NetId>,
        /// Number of crossing nets (`crossing.len()`).
        demand: usize,
        /// Unblocked cell pairs on the cut usable by a crossing net.
        capacity: usize,
    },
    /// A single seam — a bridge of the tile graph — must carry more
    /// forced nets than it has crossing slots (emitted by
    /// [`analyze_chip`](crate::chip::analyze_chip)).
    SeamSaturated {
        /// Tile side length the analysis ran at.
        tile: u32,
        /// Lower/left tile of the seam.
        a: TileId,
        /// Upper/right tile of the seam.
        b: TileId,
        /// Nets forced through the seam: removing it separates their
        /// pin tiles in the tile graph.
        forced: Vec<NetId>,
        /// Number of forced nets (`forced.len()`).
        demand: usize,
        /// Boundary cell pairs on the seam usable by a forced net.
        capacity: usize,
    },
    /// A pin's tile sits in a macro-walled region of the tile graph
    /// that excludes another pin of the net (emitted by
    /// [`analyze_chip`](crate::chip::analyze_chip)).
    WalledTileRegion {
        /// Tile side length the analysis ran at.
        tile: u32,
        /// The net that can never be completed.
        net: NetId,
        /// The pin sealed inside the walled region.
        pin: Pin,
        /// A pin of the same net outside the region.
        goal: Pin,
        /// Number of tiles in the region flooded from `pin`'s tile.
        region: usize,
    },
}

impl InfeasibilityCertificate {
    /// Re-derives the certificate's witness from the problem, returning
    /// `true` only if the infeasibility claim still holds exactly as
    /// stated. A sound analyzer's certificates always replay; the fuzz
    /// oracle calls this on every one it sees.
    pub fn replay(&self, problem: &Problem) -> bool {
        let ctx = Context::new(problem);
        match self {
            InfeasibilityCertificate::DensityOverflow {
                axis,
                index,
                crossing,
                demand,
                capacity,
            } => {
                let Some(cut) = ctx.cut(*axis, *index) else {
                    return false;
                };
                cut.crossing == *crossing
                    && *demand == crossing.len()
                    && cut.capacity == *capacity
                    && cut.crossing.len() > cut.capacity
            }
            InfeasibilityCertificate::UnreachablePin { net, pin, goal, component } => {
                let Some(pins) = ctx.pins_of(*net) else { return false };
                if !pins.contains(pin) || !pins.contains(goal) || pin == goal {
                    return false;
                }
                let flood = ctx.flood(*net, *pin);
                flood.len() == *component && !flood.contains(&(goal.at, goal.layer))
            }
            InfeasibilityCertificate::WalledPin { net, pin } => {
                let Some(pins) = ctx.pins_of(*net) else { return false };
                pins.len() >= 2 && pins.contains(pin) && ctx.flood(*net, *pin).len() == 1
            }
            InfeasibilityCertificate::TileCutSaturated { .. }
            | InfeasibilityCertificate::SeamSaturated { .. }
            | InfeasibilityCertificate::WalledTileRegion { .. } => {
                crate::chip::replay_chip(self, problem)
            }
        }
    }

    /// One-line summary, suitable as a router error reason.
    pub fn summary(&self) -> String {
        match self {
            InfeasibilityCertificate::DensityOverflow { axis, index, demand, capacity, .. } => {
                format!(
                    "density overflow at the cut between {axis} {index} and {}: \
                     {demand} crossing nets, {capacity} free cell pairs",
                    index + 1
                )
            }
            InfeasibilityCertificate::UnreachablePin { net, pin, goal, component } => {
                format!(
                    "pin {} on {} of net {net} is sealed in a {component}-slot region \
                     that excludes its pin {} on {}",
                    pin.at, pin.layer, goal.at, goal.layer
                )
            }
            InfeasibilityCertificate::WalledPin { net, pin } => {
                format!(
                    "pin {} on {} of net {net} has no admissible neighbouring slot",
                    pin.at, pin.layer
                )
            }
            InfeasibilityCertificate::TileCutSaturated {
                tile,
                axis,
                boundary,
                demand,
                capacity,
                ..
            } => {
                format!(
                    "tile-boundary cut saturated after tile {} {boundary} \
                     (tile size {tile}): {demand} crossing nets, {capacity} free cell pairs",
                    match axis {
                        CutAxis::Vertical => "column",
                        CutAxis::Horizontal => "row",
                    }
                )
            }
            InfeasibilityCertificate::SeamSaturated { tile, a, b, demand, capacity, .. } => {
                format!(
                    "seam between tiles ({}, {}) and ({}, {}) (tile size {tile}) is the \
                     only tile-graph link for {demand} nets but has {capacity} crossing slots",
                    a.col, a.row, b.col, b.row
                )
            }
            InfeasibilityCertificate::WalledTileRegion { tile, net, pin, goal, region } => {
                format!(
                    "pin {} on {} of net {net} is sealed in a {region}-tile walled region \
                     (tile size {tile}) that excludes its pin {} on {}",
                    pin.at, pin.layer, goal.at, goal.layer
                )
            }
        }
    }

    /// Renders the certificate as an error [`Diagnostic`].
    pub fn to_diagnostic(&self, problem: &Problem) -> Diagnostic {
        let bounds = problem.base_grid().bounds();
        match self {
            InfeasibilityCertificate::DensityOverflow { axis, index, crossing, .. } => {
                let span = match axis {
                    CutAxis::Vertical => GridSpan::area(
                        Point::new(*index, bounds.min().y),
                        Point::new(index + 1, bounds.max().y),
                    ),
                    CutAxis::Horizontal => GridSpan::area(
                        Point::new(bounds.min().x, *index),
                        Point::new(bounds.max().x, index + 1),
                    ),
                };
                Diagnostic {
                    severity: Severity::Error,
                    code: "F001",
                    rule: "density-overflow",
                    message: self.summary(),
                    span: Some(span),
                    net: crossing.first().copied(),
                    hint: Some(
                        "widen the channel, add a layer, or move pins off the saturated cut"
                            .to_string(),
                    ),
                }
            }
            InfeasibilityCertificate::UnreachablePin { net, pin, .. } => Diagnostic {
                severity: Severity::Error,
                code: "F002",
                rule: "unreachable-pin",
                message: self.summary(),
                span: Some(GridSpan::cell(pin.at, pin.layer)),
                net: Some(*net),
                hint: Some("remove an obstacle on the separating wall".to_string()),
            },
            InfeasibilityCertificate::WalledPin { net, pin } => Diagnostic {
                severity: Severity::Error,
                code: "F003",
                rule: "walled-pin",
                message: self.summary(),
                span: Some(GridSpan::cell(pin.at, pin.layer)),
                net: Some(*net),
                hint: Some("free at least one slot adjacent to the pin".to_string()),
            },
            InfeasibilityCertificate::TileCutSaturated {
                tile, axis, boundary, crossing, ..
            } => {
                let index = ((*boundary + 1) * *tile) as i32 - 1;
                let span = match axis {
                    CutAxis::Vertical => GridSpan::area(
                        Point::new(index, bounds.min().y),
                        Point::new(index + 1, bounds.max().y),
                    ),
                    CutAxis::Horizontal => GridSpan::area(
                        Point::new(bounds.min().x, index),
                        Point::new(bounds.max().x, index + 1),
                    ),
                };
                Diagnostic {
                    severity: Severity::Error,
                    code: "F004",
                    rule: "tile-cut-saturated",
                    message: self.summary(),
                    span: Some(span),
                    net: crossing.first().copied(),
                    hint: Some(
                        "raise the tile boundary's capacity: clear blockages on the cut \
                         or re-floorplan the macros straddling it"
                            .to_string(),
                    ),
                }
            }
            InfeasibilityCertificate::SeamSaturated { tile, a, b, forced, .. } => Diagnostic {
                severity: Severity::Error,
                code: "F005",
                rule: "seam-saturated",
                message: self.summary(),
                span: crate::chip::seam_span(problem, *tile, *a, *b),
                net: forced.first().copied(),
                hint: Some(
                    "the seam is a bridge of the tile graph: widen it or open a second \
                     corridor between the regions it joins"
                        .to_string(),
                ),
            },
            InfeasibilityCertificate::WalledTileRegion { net, pin, .. } => Diagnostic {
                severity: Severity::Error,
                code: "F006",
                rule: "walled-tile-region",
                message: self.summary(),
                span: Some(GridSpan::cell(pin.at, pin.layer)),
                net: Some(*net),
                hint: Some(
                    "open a corridor through the macro wall enclosing the pin's tiles".to_string(),
                ),
            },
        }
    }
}

/// The outcome of [`analyze_problem`]: all certificates found, plus
/// their rendered diagnostics in stable order.
#[derive(Debug, Clone, Default)]
pub struct FeasibilityReport {
    certificates: Vec<InfeasibilityCertificate>,
    diagnostics: Vec<Diagnostic>,
}

impl FeasibilityReport {
    /// Whether no infeasibility proof was found. A feasible verdict is
    /// *not* a routability guarantee — the checks are lower bounds.
    pub fn is_feasible(&self) -> bool {
        self.certificates.is_empty()
    }

    /// Every infeasibility proof found.
    pub fn certificates(&self) -> &[InfeasibilityCertificate] {
        &self.certificates
    }

    /// The certificates rendered as diagnostics, stably ordered.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

/// Runs the full pre-route feasibility analysis.
///
/// # Examples
///
/// A two-track channel asked to carry three crossing nets:
///
/// ```
/// use route_model::{PinSide, ProblemBuilder};
///
/// let mut b = ProblemBuilder::switchbox(6, 3);
/// for (i, name) in ["a", "b", "c"].iter().enumerate() {
///     b.net(*name)
///         .pin_side(PinSide::Left, i as u32)
///         .pin_side(PinSide::Right, 2 - i as u32);
/// }
/// let problem = b.build().unwrap();
/// let report = route_analyze::analyze_problem(&problem);
/// assert!(report.is_feasible()); // 3 rows x 2 layers: room to spare
/// ```
pub fn analyze_problem(problem: &Problem) -> FeasibilityReport {
    let ctx = Context::new(problem);
    let mut certificates = Vec::new();

    // Density cuts, columns then rows, in coordinate order.
    let bounds = ctx.base.bounds();
    for x in bounds.min().x..bounds.max().x {
        if let Some(cert) = ctx.density_certificate(CutAxis::Vertical, x) {
            certificates.push(cert);
        }
    }
    for y in bounds.min().y..bounds.max().y {
        if let Some(cert) = ctx.density_certificate(CutAxis::Horizontal, y) {
            certificates.push(cert);
        }
    }

    // Reachability, one certificate per fragmented net, in net order.
    for net in problem.nets() {
        if net.pins.len() < 2 {
            continue;
        }
        let reached = ctx.flood(net.id, net.pins[0]);
        let Some(&cut_off) = net.pins.iter().find(|p| !reached.contains(&(p.at, p.layer))) else {
            continue;
        };
        if reached.len() == 1 {
            certificates
                .push(InfeasibilityCertificate::WalledPin { net: net.id, pin: net.pins[0] });
            continue;
        }
        let island = ctx.flood(net.id, cut_off);
        certificates.push(if island.len() == 1 {
            InfeasibilityCertificate::WalledPin { net: net.id, pin: cut_off }
        } else {
            InfeasibilityCertificate::UnreachablePin {
                net: net.id,
                pin: cut_off,
                goal: net.pins[0],
                component: island.len(),
            }
        });
    }

    let mut diagnostics: Vec<Diagnostic> =
        certificates.iter().map(|c| c.to_diagnostic(problem)).collect();
    sort_diagnostics(&mut diagnostics);
    FeasibilityReport { certificates, diagnostics }
}

/// Precomputed problem state shared by the checks (and reused by the
/// chip-scale pass in [`crate::chip`]).
pub(crate) struct Context<'a> {
    problem: &'a Problem,
    base: Grid,
    pin_owner: HashMap<(Point, Layer), NetId>,
}

/// One analysed cut: the nets forced across it and the cell pairs left.
pub(crate) struct Cut {
    pub(crate) crossing: Vec<NetId>,
    pub(crate) capacity: usize,
}

impl<'a> Context<'a> {
    pub(crate) fn new(problem: &'a Problem) -> Self {
        let base = problem.base_grid();
        let mut pin_owner = HashMap::new();
        for net in problem.nets() {
            for pin in &net.pins {
                pin_owner.insert((pin.at, pin.layer), net.id);
            }
        }
        Context { problem, base, pin_owner }
    }

    fn pins_of(&self, net: NetId) -> Option<&[Pin]> {
        self.problem.nets().get(net.index()).map(|n| n.pins.as_slice())
    }

    /// Whether `net` may legally occupy `(p, layer)`: in bounds, not
    /// blocked in the base grid, and not another net's pin.
    fn admits(&self, net: NetId, p: Point, layer: Layer) -> bool {
        self.base.in_bounds(p)
            && self.base.occupant(p, layer) != Occupant::Blocked
            && self.pin_owner.get(&(p, layer)).is_none_or(|&owner| owner == net)
    }

    /// Analyzes one cut; `None` if no net crosses it.
    pub(crate) fn cut(&self, axis: CutAxis, index: i32) -> Option<Cut> {
        let bounds = self.base.bounds();
        let in_range = match axis {
            CutAxis::Vertical => index >= bounds.min().x && index < bounds.max().x,
            CutAxis::Horizontal => index >= bounds.min().y && index < bounds.max().y,
        };
        if !in_range {
            return None;
        }
        let coord = |pin: &Pin| match axis {
            CutAxis::Vertical => pin.at.x,
            CutAxis::Horizontal => pin.at.y,
        };
        let crossing: Vec<NetId> = self
            .problem
            .nets()
            .iter()
            .filter(|n| {
                let lo = n.pins.iter().map(coord).min().unwrap_or(index + 1);
                let hi = n.pins.iter().map(coord).max().unwrap_or(index);
                lo <= index && hi > index
            })
            .map(|n| n.id)
            .collect();
        if crossing.is_empty() {
            return None;
        }
        let crossing_set: HashSet<NetId> = crossing.iter().copied().collect();
        // A crossing net must own a pair of facing cells somewhere along
        // the cut. Pairs blocked in the base grid — or claimed by the pin
        // of a net that does not cross — are unusable by every crossing
        // net, so they do not count.
        let (ortho_lo, ortho_hi) = match axis {
            CutAxis::Vertical => (bounds.min().y, bounds.max().y),
            CutAxis::Horizontal => (bounds.min().x, bounds.max().x),
        };
        let mut capacity = 0usize;
        for ortho in ortho_lo..=ortho_hi {
            let (a, b) = match axis {
                CutAxis::Vertical => (Point::new(index, ortho), Point::new(index + 1, ortho)),
                CutAxis::Horizontal => (Point::new(ortho, index), Point::new(ortho, index + 1)),
            };
            for layer in Layer::ALL {
                let usable = [a, b].iter().all(|&p| {
                    self.base.occupant(p, layer) != Occupant::Blocked
                        && self
                            .pin_owner
                            .get(&(p, layer))
                            .is_none_or(|owner| crossing_set.contains(owner))
                });
                if usable {
                    capacity += 1;
                }
            }
        }
        Some(Cut { crossing, capacity })
    }

    fn density_certificate(&self, axis: CutAxis, index: i32) -> Option<InfeasibilityCertificate> {
        let cut = self.cut(axis, index)?;
        (cut.crossing.len() > cut.capacity).then_some(InfeasibilityCertificate::DensityOverflow {
            axis,
            index,
            demand: cut.crossing.len(),
            crossing: cut.crossing,
            capacity: cut.capacity,
        })
    }

    /// Floods the slots `net` may occupy, starting from `pin`. Moves:
    /// the four same-layer neighbours, plus a layer change to any
    /// adjacent admissible layer (a via occupies both endpoints, and
    /// the current slot is admissible by construction).
    fn flood(&self, net: NetId, pin: Pin) -> HashSet<(Point, Layer)> {
        let start = (pin.at, pin.layer);
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some((p, layer)) = queue.pop_front() {
            for n in p.neighbors() {
                if self.admits(net, n, layer) && seen.insert((n, layer)) {
                    queue.push_back((n, layer));
                }
            }
            for adj in layer.adjacent() {
                if self.admits(net, p, adj) && seen.insert((p, adj)) {
                    queue.push_back((p, adj));
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{PinSide, ProblemBuilder};

    /// `n` nets straight across a `width x height` switchbox.
    fn straight_across(width: u32, height: u32, n: u32) -> Problem {
        let mut b = ProblemBuilder::switchbox(width, height);
        for i in 0..n {
            b.net(format!("n{i}"))
                .pin_side(PinSide::Left, i % height)
                .pin_side(PinSide::Right, i % height);
        }
        b.build().unwrap()
    }

    #[test]
    fn roomy_problems_are_feasible() {
        let report = analyze_problem(&straight_across(8, 6, 4));
        assert!(report.is_feasible());
        assert!(report.diagnostics().is_empty());
    }

    /// Four straight-across nets, with column 2 choked down to one open
    /// row by a near-full-height wall: every vertical cut through the
    /// wall offers 2 cell pairs to 4 crossing nets.
    fn choked(wall_rows: i32) -> Problem {
        let mut b = ProblemBuilder::switchbox(6, 4);
        for y in 0..wall_rows {
            b.obstacle(Point::new(2, y));
        }
        for i in 0..4u32 {
            b.net(format!("n{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, i);
        }
        b.build().unwrap()
    }

    #[test]
    fn oversubscribed_cut_yields_density_certificate_that_replays() {
        let p = choked(3);
        let report = analyze_problem(&p);
        assert!(!report.is_feasible());
        let cert = &report.certificates()[0];
        match cert {
            InfeasibilityCertificate::DensityOverflow {
                axis,
                index,
                demand,
                capacity,
                crossing,
            } => {
                assert_eq!(*axis, CutAxis::Vertical);
                assert_eq!(*index, 1);
                assert_eq!(*demand, 4);
                assert_eq!(*capacity, 2, "one open row on two layers");
                assert_eq!(crossing.len(), 4);
            }
            other => panic!("expected density certificate, got {other:?}"),
        }
        assert!(cert.replay(&p), "witness must replay");
        // The same certificate is a lie about the unchoked problem.
        assert!(!cert.replay(&choked(0)));
    }

    #[test]
    fn walled_pin_yields_certificate_that_replays() {
        let mut b = ProblemBuilder::switchbox(7, 7);
        // Box in the interior pin at (3,3): ring of full-stack
        // obstacles, plus a cap on M2 so no via escapes upward.
        for p in [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 4)] {
            b.obstacle(Point::new(p.0, p.1));
        }
        b.obstacle_on(Point::new(3, 3), Layer::M2);
        b.net("trapped").pin_at(Point::new(3, 3), Layer::M1).pin_side(PinSide::Left, 0);
        let p = b.build().unwrap();
        let report = analyze_problem(&p);
        let certs = report.certificates();
        assert!(
            certs.iter().any(|c| matches!(
                c,
                InfeasibilityCertificate::WalledPin { pin, .. } if pin.at == Point::new(3, 3)
            )),
            "{certs:?}"
        );
        for c in certs {
            assert!(c.replay(&p));
        }
    }

    #[test]
    fn walled_pin_on_m1_can_still_escape_through_a_via() {
        let mut b = ProblemBuilder::switchbox(7, 7);
        // Same box, but only on M1: the pin escapes upward through M2.
        for p in [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 4)] {
            b.obstacle_on(Point::new(p.0, p.1), Layer::M1);
        }
        b.net("free").pin_at(Point::new(3, 3), Layer::M1).pin_side(PinSide::Left, 0);
        let p = b.build().unwrap();
        assert!(analyze_problem(&p).is_feasible());
    }

    #[test]
    fn separating_wall_yields_unreachable_pin_with_exact_component() {
        let mut b = ProblemBuilder::switchbox(5, 4);
        // A full-height, full-stack wall at x = 2.
        for y in 0..4 {
            b.obstacle(Point::new(2, y));
        }
        b.net("split").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let p = b.build().unwrap();
        let report = analyze_problem(&p);
        let cert = report
            .certificates()
            .iter()
            .find(|c| matches!(c, InfeasibilityCertificate::UnreachablePin { .. }))
            .expect("unreachable-pin certificate");
        match cert {
            InfeasibilityCertificate::UnreachablePin { component, .. } => {
                // The right bank: 2 columns x 4 rows x 2 layers.
                assert_eq!(*component, 16);
            }
            _ => unreachable!(),
        }
        assert!(cert.replay(&p));
        // Tampered witnesses must not replay.
        if let InfeasibilityCertificate::UnreachablePin { net, pin, goal, component } = cert {
            let forged = InfeasibilityCertificate::UnreachablePin {
                net: *net,
                pin: *pin,
                goal: *goal,
                component: component + 1,
            };
            assert!(!forged.replay(&p));
        }
    }

    #[test]
    fn pins_of_non_crossing_nets_reduce_cut_capacity() {
        let mut b = ProblemBuilder::switchbox(4, 2);
        for i in 0..2u32 {
            b.net(format!("x{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, i);
        }
        // A vertical local net whose pins sit on cut column 1: it never
        // crosses the cut, so its pin slots are dead capacity there.
        b.net("local").pin_at(Point::new(1, 0), Layer::M1).pin_at(Point::new(1, 1), Layer::M1);
        let p = b.build().unwrap();
        let ctx = Context::new(&p);
        let cut = ctx.cut(CutAxis::Vertical, 1).unwrap();
        assert_eq!(cut.crossing.len(), 2);
        // 2 rows x 2 enabled layers = 4 raw pairs; the local's pins at
        // (1, 0) and (1, 1) on M1 kill the two M1 pairs.
        assert_eq!(cut.capacity, 2);
    }

    #[test]
    fn single_pin_nets_are_never_fragmented() {
        let mut b = ProblemBuilder::switchbox(3, 3);
        b.net("solo").pin_at(Point::new(1, 1), Layer::M1);
        let p = b.build().unwrap();
        assert!(analyze_problem(&p).is_feasible());
    }
}
