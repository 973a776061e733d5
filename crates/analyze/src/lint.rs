//! Whole-database lint analysis over a routed [`RouteDb`].
//!
//! Every DRC and consistency check in the workspace lives here, as one
//! entry in a [rule registry](rules): occupancy is recomputed from pins
//! and traces, then each rule audits one property of the database.
//! `route_verify` delegates to this registry (keeping its historical
//! [`Violation`]-shaped API), and the CLI renders the same findings as
//! compiler-style diagnostics.
//!
//! Error-severity rules (`L001`–`L005`) make a database illegal;
//! warning-severity rules (`L006`–`L008`) flag legal but suspect
//! constructs — stacked vias, foreign vias in adjacent cells, and
//! wiring in components that touch no pin.
//!
//! [`Violation`]: https://docs.rs/route-verify

use std::collections::{HashMap, HashSet, VecDeque};

use route_geom::{Layer, Point};
use route_model::{Grid, NetId, Occupant, Problem, RouteDb, SlotIndex, Step};

use crate::diag::{sort_diagnostics, Diagnostic, GridSpan, Severity};

/// One concrete lint hit, with the witness data its rule collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintFinding {
    /// Two nets occupy the same `(cell, layer)` slot (`L001`).
    Short {
        /// First net, in net order.
        a: NetId,
        /// Second net.
        b: NetId,
        /// The contested cell.
        at: Point,
        /// The contested layer.
        layer: Layer,
    },
    /// Wiring on a blocked or out-of-grid cell (`L002`).
    BlockedCell {
        /// The offending net.
        net: NetId,
        /// The illegal cell.
        at: Point,
        /// The illegal layer.
        layer: Layer,
    },
    /// A layer change without a consistent via, or a via marker no
    /// trace backs (`L003`).
    DanglingVia {
        /// The net whose via is inconsistent.
        net: NetId,
        /// The via location.
        at: Point,
    },
    /// A net's pins split across multiple components (`L004`).
    Disconnected {
        /// The fragmented net.
        net: NetId,
        /// Number of components containing at least one pin.
        components: usize,
    },
    /// The live grid disagrees with recomputed occupancy (`L005`).
    GridMismatch {
        /// The inconsistent cell.
        at: Point,
        /// The inconsistent layer.
        layer: Layer,
    },
    /// Vias on both layer pairs of the same point (`L006`).
    StackedVia {
        /// The net stacking its vias.
        net: NetId,
        /// The shared via point.
        at: Point,
    },
    /// Vias of different nets in Manhattan-adjacent cells on the same
    /// layer pair (`L007`).
    AdjacentVias {
        /// Net owning the via at `at`.
        a: NetId,
        /// Net owning the via at `other`.
        b: NetId,
        /// First via point (the smaller coordinate).
        at: Point,
        /// Second via point.
        other: Point,
        /// Lower layer of the shared via pair.
        lower: Layer,
    },
    /// A connected component of a net's wiring that contains no pin
    /// (`L008`).
    DeadWire {
        /// The net owning the floating wiring.
        net: NetId,
        /// Representative slot of the component (minimum position).
        at: Point,
        /// Layer of the representative slot.
        layer: Layer,
        /// Number of slots in the floating component.
        cells: usize,
    },
    /// A pin of a partially wired net left with zero incident wiring —
    /// the signature a pruned stitch anchor leaves behind (`L009`).
    AnchorOrphan {
        /// The net owning the orphaned pin.
        net: NetId,
        /// The orphaned pin cell.
        at: Point,
        /// The orphaned pin layer.
        layer: Layer,
    },
}

impl LintFinding {
    /// The registry rule that produced this finding.
    pub fn rule(&self) -> &'static LintRule {
        &rules()[self.rule_index()]
    }

    fn rule_index(&self) -> usize {
        match self {
            LintFinding::Short { .. } => 0,
            LintFinding::BlockedCell { .. } => 1,
            LintFinding::DanglingVia { .. } => 2,
            LintFinding::Disconnected { .. } => 3,
            LintFinding::GridMismatch { .. } => 4,
            LintFinding::StackedVia { .. } => 5,
            LintFinding::AdjacentVias { .. } => 6,
            LintFinding::DeadWire { .. } => 7,
            LintFinding::AnchorOrphan { .. } => 8,
        }
    }

    /// Stable ordering key: rule, then position, then nets.
    fn sort_key(&self) -> (usize, i32, i32, usize, u32) {
        let (at, layer, net) = match *self {
            LintFinding::Short { at, layer, a, .. } => (at, layer.index(), a.0),
            LintFinding::BlockedCell { at, layer, net } => (at, layer.index(), net.0),
            LintFinding::DanglingVia { at, net } => (at, 0, net.0),
            LintFinding::Disconnected { net, .. } => (Point::new(0, 0), 0, net.0),
            LintFinding::GridMismatch { at, layer } => (at, layer.index(), 0),
            LintFinding::StackedVia { at, net } => (at, 0, net.0),
            LintFinding::AdjacentVias { at, lower, a, .. } => (at, lower.index(), a.0),
            LintFinding::DeadWire { at, layer, net, .. } => (at, layer.index(), net.0),
            LintFinding::AnchorOrphan { at, layer, net } => (at, layer.index(), net.0),
        };
        (self.rule_index(), at.y, at.x, layer, net)
    }

    /// Renders the finding as a [`Diagnostic`] under its rule's code.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let rule = self.rule();
        let (message, span, net, hint) = match self {
            LintFinding::Short { a, b, at, layer } => (
                format!("nets {a} and {b} both occupy {at} on {layer}"),
                Some(GridSpan::cell(*at, *layer)),
                Some(*a),
                Some("rip up one of the nets and reroute around the contested cell".to_string()),
            ),
            LintFinding::BlockedCell { net, at, layer } => (
                format!("net {net} wires through the blocked cell {at} on {layer}"),
                Some(GridSpan::cell(*at, *layer)),
                Some(*net),
                Some("reroute around the obstacle".to_string()),
            ),
            LintFinding::DanglingVia { net, at } => (
                format!("net {net} has an inconsistent via at {at}"),
                Some(GridSpan::point(*at)),
                Some(*net),
                Some(
                    "a via needs both layers owned by its net and a matching grid marker"
                        .to_string(),
                ),
            ),
            LintFinding::Disconnected { net, components } => (
                format!("net {net} is split into {components} pin components"),
                None,
                Some(*net),
                Some("route the missing connections or report the net as failed".to_string()),
            ),
            LintFinding::GridMismatch { at, layer } => (
                format!("live grid disagrees with trace occupancy at {at} on {layer}"),
                Some(GridSpan::cell(*at, *layer)),
                None,
                Some("commit and rip-up must keep the grid in sync with traces".to_string()),
            ),
            LintFinding::StackedVia { net, at } => (
                format!("net {net} stacks vias on both layer pairs at {at}"),
                Some(GridSpan::point(*at)),
                Some(*net),
                Some("prefer stepping the layer change across two columns".to_string()),
            ),
            LintFinding::AdjacentVias { a, b, at, other, lower } => (
                format!(
                    "vias of nets {a} and {b} sit in adjacent cells {at} and {other} on the \
                     {lower} pair"
                ),
                Some(GridSpan::area(*at, *other)),
                Some(*a),
                Some("adjacent foreign vias violate spacing on most processes".to_string()),
            ),
            LintFinding::DeadWire { net, at, layer, cells } => (
                format!("net {net} owns a floating {cells}-slot component touching no pin"),
                Some(GridSpan::cell(*at, *layer)),
                Some(*net),
                Some("rip up the dead wiring to reclaim capacity".to_string()),
            ),
            LintFinding::AnchorOrphan { net, at, layer } => (
                format!("net {net} leaves its pin at {at} on {layer} with no incident wiring"),
                Some(GridSpan::cell(*at, *layer)),
                Some(*net),
                Some(
                    "a prune that strands an anchor pin should take the whole stub or none"
                        .to_string(),
                ),
            ),
        };
        Diagnostic {
            severity: rule.severity,
            code: rule.code,
            rule: rule.name,
            message,
            span,
            net,
            hint,
        }
    }
}

/// One entry in the lint registry.
pub struct LintRule {
    /// Stable machine-readable code (`L001`...).
    pub code: &'static str,
    /// Stable kebab-case name.
    pub name: &'static str,
    /// Severity of every finding this rule emits.
    pub severity: Severity,
    /// One-line description for rule catalogs.
    pub description: &'static str,
    run: fn(&LintContext) -> Vec<LintFinding>,
}

/// The full lint registry, in rule-code order.
pub fn rules() -> &'static [LintRule] {
    static RULES: [LintRule; 9] = [
        LintRule {
            code: "L001",
            name: "short-circuit",
            severity: Severity::Error,
            description: "two nets occupy the same cell and layer",
            run: lint_shorts,
        },
        LintRule {
            code: "L002",
            name: "blocked-cell",
            severity: Severity::Error,
            description: "wiring on an obstacle, outside the region, or off the grid",
            run: lint_blocked,
        },
        LintRule {
            code: "L003",
            name: "dangling-via",
            severity: Severity::Error,
            description: "layer change without a consistent, grid-backed via",
            run: lint_vias,
        },
        LintRule {
            code: "L004",
            name: "disconnected-net",
            severity: Severity::Error,
            description: "a net's pins are not all in one connected component",
            run: lint_connectivity,
        },
        LintRule {
            code: "L005",
            name: "grid-mismatch",
            severity: Severity::Error,
            description: "live occupancy grid disagrees with the traces",
            run: lint_grid,
        },
        LintRule {
            code: "L006",
            name: "stacked-via",
            severity: Severity::Warning,
            description: "vias on both layer pairs of one point",
            run: lint_stacked,
        },
        LintRule {
            code: "L007",
            name: "via-adjacency",
            severity: Severity::Warning,
            description: "vias of different nets in adjacent cells",
            run: lint_adjacent,
        },
        LintRule {
            code: "L008",
            name: "dead-wire",
            severity: Severity::Warning,
            description: "wiring in a component that touches no pin",
            run: lint_dead,
        },
        LintRule {
            code: "L009",
            name: "seam-anchor-orphan",
            severity: Severity::Warning,
            description: "a pin of a partially wired net has zero incident wiring",
            run: lint_anchors,
        },
    ];
    &RULES
}

/// The error-severity prefix of the registry (`L001`–`L005`): exactly
/// the historical `route_verify` checks. Legality-only callers (the
/// verifier, the fuzz DRC oracle) select these.
pub fn error_rules() -> &'static [LintRule] {
    let all = rules();
    let split = all.iter().position(|r| r.severity != Severity::Error).unwrap_or(all.len());
    &all[..split]
}

/// The outcome of [`lint_db`]: all findings, stably ordered, plus their
/// rendered diagnostics.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    findings: Vec<LintFinding>,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether no error-severity rule fired.
    pub fn is_legal(&self) -> bool {
        self.findings.iter().all(|f| f.rule().severity != Severity::Error)
    }

    /// Every finding, ordered by rule then position.
    pub fn findings(&self) -> &[LintFinding] {
        &self.findings
    }

    /// The findings rendered as diagnostics, stably ordered.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }
}

/// Runs every registry rule over a database.
///
/// # Examples
///
/// ```
/// use route_model::{PinSide, ProblemBuilder, RouteDb};
///
/// let mut b = ProblemBuilder::switchbox(5, 4);
/// b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
/// let problem = b.build().unwrap();
/// let report = route_analyze::lint_db(&problem, &RouteDb::new(&problem));
/// // Nothing routed yet: the only finding is the disconnected net.
/// assert!(!report.is_clean());
/// assert_eq!(report.findings().len(), 1);
/// ```
pub fn lint_db(problem: &Problem, db: &RouteDb) -> LintReport {
    lint_db_with(problem, db, rules())
}

/// Runs a subset of rules — callers that only care about legality can
/// pass the error-severity slice.
pub fn lint_db_with(problem: &Problem, db: &RouteDb, selected: &[LintRule]) -> LintReport {
    let ctx = LintContext::new(problem, db);
    let mut findings: Vec<LintFinding> = Vec::new();
    for rule in selected {
        findings.extend((rule.run)(&ctx));
    }
    findings.sort_by_key(LintFinding::sort_key);
    let mut diagnostics: Vec<Diagnostic> =
        findings.iter().map(LintFinding::to_diagnostic).collect();
    sort_diagnostics(&mut diagnostics);
    LintReport { findings, diagnostics }
}

/// Lints a *partial* routing salvaged from a failed or interrupted run.
///
/// Every error-severity rule runs, but [`LintFinding::Disconnected`]
/// (`L004`) findings on nets the salvager already declared failed are
/// excused: a salvage is expected to be incomplete, never illegal. A
/// disconnected finding on a net **not** in `declared_failed` survives
/// into the report — it means the salvage claims a net it did not
/// actually connect, which is exactly the lie the fuzz oracle hunts.
///
/// # Examples
///
/// ```
/// use route_model::{PinSide, ProblemBuilder, RouteDb};
///
/// let mut b = ProblemBuilder::switchbox(5, 4);
/// b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
/// let problem = b.build().unwrap();
/// let net = problem.nets()[0].id;
/// let empty = RouteDb::new(&problem);
/// // An empty database is a legal salvage iff the net is declared failed.
/// assert!(route_analyze::lint_salvage(&problem, &empty, &[net]).is_clean());
/// assert!(!route_analyze::lint_salvage(&problem, &empty, &[]).is_legal());
/// ```
pub fn lint_salvage(problem: &Problem, db: &RouteDb, declared_failed: &[NetId]) -> LintReport {
    let full = lint_db_with(problem, db, error_rules());
    let findings: Vec<LintFinding> = full
        .findings
        .iter()
        .filter(|f| match f {
            LintFinding::Disconnected { net, .. } => !declared_failed.contains(net),
            _ => true,
        })
        .cloned()
        .collect();
    let mut diagnostics: Vec<Diagnostic> =
        findings.iter().map(LintFinding::to_diagnostic).collect();
    sort_diagnostics(&mut diagnostics);
    LintReport { findings, diagnostics }
}

/// Chip-aware salvage lint for hierarchical (tiled) results.
///
/// Runs everything [`lint_salvage`] runs, plus the two warning rules a
/// stitched chip can trip — dead wire (`L008`) and anchor orphans
/// (`L009`). Every anchor orphan is reported, on declared-failed nets
/// too: a pin whose wiring was pruned away from it is exactly the
/// artifact this report exists to surface. Both stay warnings, so
/// [`LintReport::is_legal`] is unaffected.
pub fn lint_salvage_chip(problem: &Problem, db: &RouteDb, declared_failed: &[NetId]) -> LintReport {
    let full = lint_db_with(problem, db, rules());
    let findings: Vec<LintFinding> = full
        .findings
        .iter()
        .filter(|f| match f {
            LintFinding::Disconnected { net, .. } => !declared_failed.contains(net),
            LintFinding::StackedVia { .. } | LintFinding::AdjacentVias { .. } => false,
            _ => true,
        })
        .cloned()
        .collect();
    let mut diagnostics: Vec<Diagnostic> =
        findings.iter().map(LintFinding::to_diagnostic).collect();
    sort_diagnostics(&mut diagnostics);
    LintReport { findings, diagnostics }
}

/// One occupied slot: a grid cell on one layer.
type Slot = (Point, Layer);

/// One connected component of a net's occupancy: its slots and
/// whether any of them is a pin.
type Component = (Vec<Slot>, bool);

/// Occupancy and connectivity recomputed once, shared by all rules.
struct LintContext<'a> {
    problem: &'a Problem,
    db: &'a RouteDb,
    base: Grid,
    /// Recomputed slot ownership: pins plus every trace step, with the
    /// owning nets in net order.
    occupancy: HashMap<(Point, Layer), Vec<NetId>>,
    /// Vias required by layer changes in live traces, per net.
    required_vias: HashMap<NetId, HashSet<(Point, Layer)>>,
    /// Per net: each connected component of its occupancy.
    components: Vec<Vec<Component>>,
}

impl<'a> LintContext<'a> {
    fn new(problem: &'a Problem, db: &'a RouteDb) -> Self {
        let base = problem.base_grid();
        let mut occupancy: HashMap<(Point, Layer), Vec<NetId>> = HashMap::new();
        let mut required_vias: HashMap<NetId, HashSet<(Point, Layer)>> = HashMap::new();
        for net in problem.nets() {
            let mut slots: HashSet<(Point, Layer)> = HashSet::new();
            for pin in &net.pins {
                slots.insert((pin.at, pin.layer));
            }
            for (_, trace) in db.traces(net.id) {
                for step in trace.steps() {
                    slots.insert((step.at, step.layer));
                }
                required_vias.entry(net.id).or_default().extend(trace.via_points());
            }
            for slot in slots {
                occupancy.entry(slot).or_default().push(net.id);
            }
        }
        let components =
            problem.nets().iter().map(|n| net_components(db, n.id, &required_vias)).collect();
        LintContext { problem, db, base, occupancy, required_vias, components }
    }

    /// All required vias as `(point, lower layer, net)`, sorted.
    fn sorted_vias(&self) -> Vec<(Point, Layer, NetId)> {
        let mut vias: Vec<(Point, Layer, NetId)> = self
            .required_vias
            .iter()
            .flat_map(|(&net, vias)| vias.iter().map(move |&(p, l)| (p, l, net)))
            .collect();
        vias.sort_unstable();
        vias
    }
}

/// Splits `net`'s occupancy into connected components, flagging the
/// ones that contain a pin. Movement follows same-layer adjacency plus
/// layer changes where a via is required by a trace or marked on the
/// grid.
fn net_components(
    db: &RouteDb,
    net: NetId,
    required_vias: &HashMap<NetId, HashSet<Slot>>,
) -> Vec<Component> {
    let slots: HashSet<(Point, Layer)> =
        db.net_slots(net).into_iter().map(|s| (s.at, s.layer)).collect();
    let pins: HashSet<(Point, Layer)> = db.pins(net).iter().map(|p| (p.at, p.layer)).collect();
    let vias = required_vias.get(&net);
    let has_via = |p: Point, lower: Layer| {
        vias.is_some_and(|v| v.contains(&(p, lower)))
            || db.grid().via_between(p, lower) == Some(net)
    };

    let mut seeds: Vec<(Point, Layer)> = slots.iter().copied().collect();
    seeds.sort_unstable();
    let mut seen: HashSet<(Point, Layer)> = HashSet::new();
    let mut components = Vec::new();
    for seed in seeds {
        if seen.contains(&seed) {
            continue;
        }
        let mut member = vec![seed];
        let mut queue = VecDeque::from([seed]);
        seen.insert(seed);
        while let Some((p, layer)) = queue.pop_front() {
            for n in p.neighbors() {
                let key = (n, layer);
                if slots.contains(&key) && seen.insert(key) {
                    member.push(key);
                    queue.push_back(key);
                }
            }
            for adj in layer.adjacent() {
                if let Some(lower) = layer.via_pair_with(adj) {
                    if has_via(p, lower) {
                        let key = (p, adj);
                        if slots.contains(&key) && seen.insert(key) {
                            member.push(key);
                            queue.push_back(key);
                        }
                    }
                }
            }
        }
        member.sort_unstable();
        let has_pin = member.iter().any(|s| pins.contains(s));
        components.push((member, has_pin));
    }
    components
}

fn lint_shorts(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for (&(at, layer), owners) in &ctx.occupancy {
        if owners.len() > 1 {
            out.push(LintFinding::Short { a: owners[0], b: owners[1], at, layer });
        }
    }
    out
}

fn lint_blocked(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for (&(at, layer), owners) in &ctx.occupancy {
        if !ctx.base.in_bounds(at) || ctx.base.occupant(at, layer) == Occupant::Blocked {
            for &net in owners {
                out.push(LintFinding::BlockedCell { net, at, layer });
            }
        }
    }
    out
}

fn lint_vias(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    // Every required via must connect both slots of its layer pair for
    // its net, and the grid must record it for that net.
    for (&net, vias) in &ctx.required_vias {
        for &(at, lower) in vias {
            let Some(upper) = lower.above() else {
                out.push(LintFinding::DanglingVia { net, at });
                continue;
            };
            let both_layers = [lower, upper]
                .iter()
                .all(|&l| ctx.occupancy.get(&(at, l)).is_some_and(|o| o.contains(&net)));
            let grid_agrees =
                ctx.db.grid().in_bounds(at) && ctx.db.grid().via_between(at, lower) == Some(net);
            if !both_layers || !grid_agrees {
                out.push(LintFinding::DanglingVia { net, at });
            }
        }
    }
    // ...and conversely every grid marker must be backed by a trace.
    for p in ctx.base.bounds().cells() {
        for lower in [Layer::M1, Layer::M2] {
            if let Some(net) = ctx.db.grid().via_between(p, lower) {
                let backed =
                    ctx.required_vias.get(&net).is_some_and(|vias| vias.contains(&(p, lower)));
                if !backed {
                    out.push(LintFinding::DanglingVia { net, at: p });
                }
            }
        }
    }
    out
}

fn lint_connectivity(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for net in ctx.problem.nets() {
        let pinned = ctx.components[net.id.index()].iter().filter(|(_, has_pin)| *has_pin).count();
        if pinned > 1 {
            out.push(LintFinding::Disconnected { net: net.id, components: pinned });
        }
    }
    out
}

fn lint_grid(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for p in ctx.base.bounds().cells() {
        for layer in Layer::ALL {
            if ctx.base.occupant(p, layer) == Occupant::Blocked {
                continue;
            }
            let expected = ctx.occupancy.get(&(p, layer)).and_then(|o| o.first().copied());
            let actual = ctx.db.grid().occupant(p, layer).net();
            let actual_free = ctx.db.grid().occupant(p, layer).is_free();
            let matches = match expected {
                Some(net) => actual == Some(net),
                None => actual_free,
            };
            if !matches {
                out.push(LintFinding::GridMismatch { at: p, layer });
            }
        }
    }
    out
}

fn lint_stacked(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for (&net, vias) in &ctx.required_vias {
        for &(at, lower) in vias {
            // Report once per point, from the lower pair.
            if lower == Layer::M1 && vias.contains(&(at, Layer::M2)) {
                out.push(LintFinding::StackedVia { net, at });
            }
        }
    }
    out
}

fn lint_adjacent(ctx: &LintContext) -> Vec<LintFinding> {
    let vias = ctx.sorted_vias();
    // Spatial index over via sites: inserting in sorted order keeps each
    // slot's owner list in net order, so findings come out in the same
    // order the old per-slot hash map produced.
    let mut by_slot: SlotIndex<NetId> = SlotIndex::new(ctx.base.width(), ctx.base.height());
    for &(p, l, net) in &vias {
        by_slot.insert(Step { at: p, layer: l }, net);
    }
    let mut out = Vec::new();
    for &(p, lower, net) in &vias {
        for n in p.neighbors() {
            // Visit each unordered pair once, from its smaller point.
            if n < p {
                continue;
            }
            for &other in by_slot.at(n, lower) {
                if other != net {
                    out.push(LintFinding::AdjacentVias {
                        a: net,
                        b: other,
                        at: p,
                        other: n,
                        lower,
                    });
                }
            }
        }
    }
    out
}

fn lint_anchors(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for net in ctx.problem.nets() {
        // Only nets that carry wiring somewhere: a fully unrouted net is
        // L004's business, not an orphaned anchor.
        if net.pins.len() < 2 || ctx.db.traces(net.id).next().is_none() {
            continue;
        }
        for pin in &net.pins {
            let slot = (pin.at, pin.layer);
            let orphaned = ctx.components[net.id.index()]
                .iter()
                .find(|(member, _)| member.binary_search(&slot).is_ok())
                .is_some_and(|(member, _)| member.len() == 1);
            if orphaned {
                out.push(LintFinding::AnchorOrphan { net: net.id, at: pin.at, layer: pin.layer });
            }
        }
    }
    out
}

fn lint_dead(ctx: &LintContext) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for net in ctx.problem.nets() {
        for (member, has_pin) in &ctx.components[net.id.index()] {
            if !has_pin {
                let &(at, layer) = member.first().expect("components are non-empty");
                out.push(LintFinding::DeadWire { net: net.id, at, layer, cells: member.len() });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{PinSide, ProblemBuilder, Step, Trace};

    fn two_pin_problem() -> Problem {
        let mut b = ProblemBuilder::switchbox(5, 4);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b.build().unwrap()
    }

    fn m1_row(y: i32, x0: i32, x1: i32) -> Trace {
        Trace::from_steps((x0..=x1).map(|x| Step::new(Point::new(x, y), Layer::M1)).collect())
            .unwrap()
    }

    #[test]
    fn registry_is_stable() {
        let codes: Vec<&str> = rules().iter().map(|r| r.code).collect();
        assert_eq!(codes, ["L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009"]);
        let unique: HashSet<&str> = rules().iter().map(|r| r.name).collect();
        assert_eq!(unique.len(), rules().len(), "rule names must be unique");
    }

    #[test]
    fn clean_routing_has_no_findings() {
        let p = two_pin_problem();
        let mut db = RouteDb::new(&p);
        db.commit(p.nets()[0].id, m1_row(1, 0, 4)).unwrap();
        let report = lint_db(&p, &db);
        assert!(report.is_clean(), "{:?}", report.findings());
        assert!(report.is_legal());
    }

    #[test]
    fn unrouted_net_is_disconnected_only() {
        let p = two_pin_problem();
        let report = lint_db(&p, &RouteDb::new(&p));
        assert_eq!(
            report.findings(),
            &[LintFinding::Disconnected { net: NetId(0), components: 2 }]
        );
        assert!(!report.is_legal());
    }

    #[test]
    fn dead_wire_is_a_warning_not_an_error() {
        let p = two_pin_problem();
        let mut db = RouteDb::new(&p);
        db.commit(p.nets()[0].id, m1_row(1, 0, 4)).unwrap();
        // A second trace nowhere near the pins: floating wiring.
        db.commit(p.nets()[0].id, m1_row(3, 1, 2)).unwrap();
        let report = lint_db(&p, &db);
        assert_eq!(
            report.findings(),
            &[LintFinding::DeadWire {
                net: NetId(0),
                at: Point::new(1, 3),
                layer: Layer::M1,
                cells: 2
            }]
        );
        assert!(report.is_legal(), "dead wire alone keeps the db legal");
        assert!(!report.is_clean());
    }

    #[test]
    fn stacked_via_warns_on_three_layer_problems() {
        let mut b = ProblemBuilder::switchbox(4, 4);
        b.layers(3);
        b.net("a").pin_at(Point::new(0, 0), Layer::M1).pin_at(Point::new(0, 3), Layer::M3);
        let p = b.build().unwrap();
        let mut db = RouteDb::new(&p);
        let steps = vec![
            Step::new(Point::new(0, 0), Layer::M1),
            Step::new(Point::new(0, 0), Layer::M2),
            Step::new(Point::new(0, 0), Layer::M3),
            Step::new(Point::new(0, 1), Layer::M3),
            Step::new(Point::new(0, 2), Layer::M3),
            Step::new(Point::new(0, 3), Layer::M3),
        ];
        db.commit(p.nets()[0].id, Trace::from_steps(steps).unwrap()).unwrap();
        let report = lint_db(&p, &db);
        assert_eq!(
            report.findings(),
            &[LintFinding::StackedVia { net: NetId(0), at: Point::new(0, 0) }]
        );
        let diag = &report.diagnostics()[0];
        assert_eq!(diag.code, "L006");
        assert_eq!(diag.severity, Severity::Warning);
    }

    #[test]
    fn adjacent_foreign_vias_warn_once_per_pair() {
        let mut b = ProblemBuilder::switchbox(6, 4);
        b.net("a").pin_at(Point::new(0, 0), Layer::M1).pin_at(Point::new(1, 2), Layer::M2);
        b.net("b").pin_at(Point::new(2, 0), Layer::M1).pin_at(Point::new(2, 3), Layer::M2);
        let p = b.build().unwrap();
        let mut db = RouteDb::new(&p);
        db.commit(
            p.nets()[0].id,
            Trace::from_steps(vec![
                Step::new(Point::new(0, 0), Layer::M1),
                Step::new(Point::new(1, 0), Layer::M1),
                Step::new(Point::new(1, 0), Layer::M2),
                Step::new(Point::new(1, 1), Layer::M2),
                Step::new(Point::new(1, 2), Layer::M2),
            ])
            .unwrap(),
        )
        .unwrap();
        db.commit(
            p.nets()[1].id,
            Trace::from_steps(vec![
                Step::new(Point::new(2, 0), Layer::M1),
                Step::new(Point::new(2, 0), Layer::M2),
                Step::new(Point::new(2, 1), Layer::M2),
                Step::new(Point::new(2, 2), Layer::M2),
                Step::new(Point::new(2, 3), Layer::M2),
            ])
            .unwrap(),
        )
        .unwrap();
        let report = lint_db(&p, &db);
        let adjacent: Vec<&LintFinding> = report
            .findings()
            .iter()
            .filter(|f| matches!(f, LintFinding::AdjacentVias { .. }))
            .collect();
        assert_eq!(
            adjacent,
            [&LintFinding::AdjacentVias {
                a: NetId(0),
                b: NetId(1),
                at: Point::new(1, 0),
                other: Point::new(2, 0),
                lower: Layer::M1,
            }]
        );
    }

    #[test]
    fn orphaned_anchor_pin_warns_but_unrouted_net_does_not() {
        let p = two_pin_problem();
        // Wiring that reaches the left pin but strands the right one.
        let mut db = RouteDb::new(&p);
        db.commit(p.nets()[0].id, m1_row(1, 0, 2)).unwrap();
        let report = lint_db(&p, &db);
        let orphans: Vec<&LintFinding> = report
            .findings()
            .iter()
            .filter(|f| matches!(f, LintFinding::AnchorOrphan { .. }))
            .collect();
        assert_eq!(
            orphans,
            [&LintFinding::AnchorOrphan { net: NetId(0), at: Point::new(4, 1), layer: Layer::M1 }]
        );
        assert_eq!(orphans[0].rule().code, "L009");
        assert_eq!(orphans[0].rule().severity, Severity::Warning);
        // A net with no wiring at all is L004's business only.
        let empty = lint_db(&p, &RouteDb::new(&p));
        assert!(empty.findings().iter().all(|f| !matches!(f, LintFinding::AnchorOrphan { .. })));
    }

    #[test]
    fn salvage_chip_reports_every_anchor_orphan() {
        let mut b = ProblemBuilder::switchbox(10, 4);
        b.net("a").pin_at(Point::new(5, 1), Layer::M1).pin_at(Point::new(5, 3), Layer::M1);
        b.net("b").pin_at(Point::new(0, 1), Layer::M1).pin_at(Point::new(2, 3), Layer::M1);
        let p = b.build().unwrap();
        let (a, bnet) = (p.nets()[0].id, p.nets()[1].id);
        let mut db = RouteDb::new(&p);
        // Each net gets one stub that strands its second pin.
        db.commit(
            a,
            Trace::from_steps(vec![
                Step::new(Point::new(5, 1), Layer::M1),
                Step::new(Point::new(6, 1), Layer::M1),
            ])
            .unwrap(),
        )
        .unwrap();
        db.commit(
            bnet,
            Trace::from_steps(vec![
                Step::new(Point::new(0, 1), Layer::M1),
                Step::new(Point::new(1, 1), Layer::M1),
            ])
            .unwrap(),
        )
        .unwrap();
        let failed = [a, bnet];
        // Plain salvage is clean: both nets are declared failed.
        assert!(lint_salvage(&p, &db, &failed).is_clean());
        // Chip-aware salvage keeps both orphans, wherever they sit, as
        // warnings.
        let report = lint_salvage_chip(&p, &db, &failed);
        assert!(report.is_legal());
        let orphans: Vec<&LintFinding> = report
            .findings()
            .iter()
            .filter(|f| matches!(f, LintFinding::AnchorOrphan { .. }))
            .collect();
        assert_eq!(
            orphans,
            [
                &LintFinding::AnchorOrphan { net: bnet, at: Point::new(2, 3), layer: Layer::M1 },
                &LintFinding::AnchorOrphan { net: a, at: Point::new(5, 3), layer: Layer::M1 },
            ]
        );
        // An undeclared orphan is reported too.
        let undeclared = lint_salvage_chip(&p, &db, &[a]);
        assert!(undeclared
            .findings()
            .iter()
            .any(|f| matches!(f, LintFinding::AnchorOrphan { net, .. } if *net == bnet)));
    }

    #[test]
    fn rule_subset_runs_only_selected_rules() {
        let p = two_pin_problem();
        let mut db = RouteDb::new(&p);
        db.commit(p.nets()[0].id, m1_row(1, 0, 4)).unwrap();
        db.commit(p.nets()[0].id, m1_row(3, 1, 2)).unwrap();
        // Errors only: the dead wire warning is not consulted.
        let errors_only = lint_db_with(&p, &db, &rules()[..5]);
        assert!(errors_only.is_clean());
    }

    #[test]
    fn findings_order_is_stable() {
        let p = two_pin_problem();
        let mut db = RouteDb::new(&p);
        db.commit(p.nets()[0].id, m1_row(3, 3, 4)).unwrap();
        db.commit(p.nets()[0].id, m1_row(3, 0, 1)).unwrap();
        let report = lint_db(&p, &db);
        // One disconnected finding, two dead wires left-to-right, then
        // both stranded pins as anchor orphans.
        let kinds: Vec<usize> = report.findings().iter().map(|f| f.rule_index()).collect();
        assert_eq!(kinds, [3, 7, 7, 8, 8]);
        match (&report.findings()[1], &report.findings()[2]) {
            (LintFinding::DeadWire { at: a, .. }, LintFinding::DeadWire { at: b, .. }) => {
                assert!(a < b)
            }
            other => panic!("expected two ordered DeadWire findings, got {other:?}"),
        }
    }
}
