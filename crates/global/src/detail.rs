//! Crossing assignment, parallel per-tile detailed routing, seam
//! stitching and trace paste-back.
//!
//! There is one tile stage: every tile routes through a
//! [`mighty::Supervisor`] built from the caller's [`ChipSupervision`] —
//! retry with perturbed schedules and escalated budgets (seeded
//! `seed ^ tile`), per-tile fallback chain, best-snapshot salvage — on
//! the ordered worker pool ([`mighty::map_ordered`]). The plain entry
//! points pass [`ChipSupervision::none`], which routes each tile exactly
//! once. With a crash-safe [`mighty::ChipJournal`], per-tile outcomes
//! are persisted as they finish, so a killed run resumes without
//! re-routing finished tiles.
//!
//! Tiles and seam bands are both `Window`s: one builder cuts the
//! sub-problem out of the chip, one paste commits its wiring back.
//!
//! Seam repair always runs as an escalation ladder per edge: a band of
//! `STITCH_BAND` cells first, then a widened band, then a widened band
//! with the net's in-band wiring discarded (re-anchor). The last rung
//! rips the edge's stubborn nets wholesale and reroutes the whole die
//! incrementally — every net still incomplete anywhere on it, not just
//! this edge's — so it usually finishes the chip before the whole-die
//! fallback runs.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mighty::{
    ChipJournal, ChipTileRecord, EngineFault, FallbackChain, FaultSite, InstanceStatus,
    MightyRouter, RecoveryPath, RetryPolicy, RunJournal, SupervisedOutcome, Supervisor,
};
use route_geom::{Layer, Point, Rect};
use route_maze::SearchArena;
use route_model::{
    EventSink, Grid, NetId, NopObserver, Occupant, Pin, Problem, ProblemBuilder, ProblemError,
    RouteDb, RouteEvent, RouteObserver, Routing, Step, TileEdge, TileGrid, TileId, Trace, TraceId,
};

use crate::plan::plan_with;
use crate::{ChipSupervision, GlobalConfig};

/// Work counters of a hierarchical run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GlobalStats {
    /// Tile grid dimensions (columns, rows).
    pub tiles: (u32, u32),
    /// Tile-edge crossings planned.
    pub crossings: usize,
    /// Edges the planner over-subscribed.
    pub overflowed_edges: usize,
    /// Nets dropped from the tiled phase: unplannable over the tile
    /// graph, or unassignable crossings on an over-subscribed edge.
    pub dropped: usize,
    /// Nets that failed inside some tile.
    pub tile_failures: usize,
    /// Nets the flat fallback pass completed.
    pub fallback_completed: usize,
}

/// Half-width of a seam band, in cells on each side of the tile
/// boundary, at the ladder's first rung.
const STITCH_BAND: u32 = 3;

/// Chip-flow counters of a hierarchical run: the tile batch, the seam
/// repairs, and the post-stitch cleanup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChipStats {
    /// Tiles the tile stage routed (complete or not).
    pub tiles_routed: usize,
    /// Tiles lost wholesale: every attempt panicked or errored without
    /// leaving a snapshot to salvage.
    pub tiles_errored: usize,
    /// Tiles completed by a retry (only with
    /// [`ChipSupervision::retries`] above zero).
    pub tiles_retried: usize,
    /// Tiles completed by a per-tile fallback router (only with
    /// [`ChipSupervision::fallback`] on).
    pub tiles_fell_back: usize,
    /// Tiles left incomplete after every attempt, whose best partial
    /// snapshot was salvaged — in every run, since the plain flow's one
    /// attempt per tile salvages too. The snapshot feeds the seam stage,
    /// so a salvaged tile is never an empty tile.
    pub tiles_salvaged: usize,
    /// Seam-repair escalation rungs taken beyond each seam's first
    /// attempt (widened band, re-anchor, whole-die reroute).
    pub seam_escalations: usize,
    /// Tile edges carrying at least one assigned crossing.
    pub seams: usize,
    /// Seams that entered the repair ladder: at least one of their
    /// crossing nets was still incomplete when the stitch pass reached
    /// them.
    pub seams_repaired: usize,
    /// Strong rip-ups performed by the rip-up router inside seam bands.
    pub seam_ripups: usize,
    /// Nets the stitch pass completed.
    pub seam_completed: usize,
    /// Concrete boundary-cell crossing pairs assigned to nets.
    pub crossing_pins: usize,
    /// Wire steps reclaimed by the dead-wire prune after routing.
    pub pruned_steps: usize,
    /// Chip-scale infeasibility certificates found by the `--analyze`
    /// precheck (zero when the precheck is off).
    pub analyze_certificates: usize,
    /// Nets the precheck certified unroutable and the pipeline skipped.
    pub certified_nets: usize,
}

/// The result of [`route_hierarchical`].
#[derive(Debug, Clone)]
pub struct GlobalOutcome {
    db: RouteDb,
    failed: Vec<NetId>,
    stats: GlobalStats,
    chip: ChipStats,
    resumed_tiles: usize,
    journal_error: Option<String>,
}

impl GlobalOutcome {
    /// Whether every net was fully connected — including nets dropped at
    /// planning time, which never reach a tile job: completion is always
    /// recomputed from the final database, never from per-phase claims.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// The global routing database.
    pub fn db(&self) -> &RouteDb {
        &self.db
    }

    /// Consumes the outcome, returning the database.
    pub fn into_db(self) -> RouteDb {
        self.db
    }

    /// Nets that remain incomplete.
    pub fn failed(&self) -> &[NetId] {
        &self.failed
    }

    /// Work counters.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Chip-flow counters: tile batch, seam repairs, cleanup.
    pub fn chip_stats(&self) -> &ChipStats {
        &self.chip
    }

    /// Tiles replayed from the chip journal instead of re-routed
    /// (always zero without a journal). Deliberately *not* part of
    /// [`ChipStats`]: a resumed report must be byte-identical to an
    /// uninterrupted one, so resume provenance lives outside it.
    pub fn resumed_tiles(&self) -> usize {
        self.resumed_tiles
    }

    /// The first journal write error or resume-divergence, if any —
    /// the run still completes (recovery must not lose results), but
    /// callers should surface this.
    pub fn journal_error(&self) -> Option<&str> {
        self.journal_error.as_deref()
    }
}

/// Forwards band-local router events to the caller's observer with net
/// ids translated back to the global namespace, counting rip-ups.
struct SeamObserver<'a> {
    /// Band-local net index to global id: the band window's nets.
    map: &'a [NetId],
    inner: &'a mut dyn RouteObserver,
    ripups: usize,
}

impl EventSink for SeamObserver<'_> {
    fn event(&mut self, event: RouteEvent) {
        if let RouteEvent::StrongRipup { .. } = event {
            self.ripups += 1;
        }
        event.map_nets(|id| self.map[id.index()]).replay(self.inner);
    }
}

/// A sub-problem cut out of the chip — a tile or a seam band. Local
/// coordinates are chip coordinates minus `origin`, and local net
/// `NetId(i)` is the chip's `nets[i]`, because the problem builder
/// numbers nets in declaration order.
struct Window {
    origin: Point,
    nets: Vec<NetId>,
}

impl Window {
    /// Builds the sub-problem over `rect`: every `blocked` slot becomes
    /// an obstacle and every `(net, pins)` entry a net under its chip
    /// name, declared in the order given.
    fn build<P: IntoIterator<Item = (Point, Layer)>>(
        problem: &Problem,
        rect: Rect,
        blocked: impl IntoIterator<Item = (Point, Layer)>,
        nets: impl IntoIterator<Item = (NetId, P)>,
    ) -> Result<(Window, Problem), ProblemError> {
        let mut window = Window { origin: rect.min(), nets: Vec::new() };
        let mut builder = ProblemBuilder::switchbox(rect.width(), rect.height());
        builder.layers(problem.layers());
        for (p, layer) in blocked {
            builder.obstacle_on(window.at(p, -1), layer);
        }
        for (id, pins) in nets {
            let mut nb = builder.net(&problem.net(id).name);
            for (p, layer) in pins {
                nb.pin_at(window.at(p, -1), layer);
            }
            window.nets.push(id);
        }
        Ok((window, builder.build()?))
    }

    /// `p` moved into chip coordinates (`sign` 1) or out of them (-1).
    fn at(&self, p: Point, sign: i32) -> Point {
        Point::new(p.x + sign * self.origin.x, p.y + sign * self.origin.y)
    }

    /// `trace` moved into chip coordinates (`sign` 1) or out of them (-1).
    fn shift(&self, trace: &Trace, sign: i32) -> Trace {
        let steps = trace.steps().iter().map(|s| Step::new(self.at(s.at, sign), s.layer));
        Trace::from_steps(steps.collect()).expect("translation preserves contiguity")
    }

    /// Commits the sub-problem's wiring into the chip database, net by
    /// net in local order. Live and journal-replayed tiles and repaired
    /// bands all paste through here, which keeps resumed databases
    /// byte-identical.
    fn paste(&self, sub_db: &RouteDb, db: &mut RouteDb) {
        for (i, &id) in self.nets.iter().enumerate() {
            for (_, trace) in sub_db.traces(NetId(i as u32)) {
                db.commit(id, self.shift(trace, 1))
                    .expect("a window's wiring respects the chip wiring around it");
            }
        }
    }
}

/// Routes `problem` hierarchically: plan over tiles, assign crossings,
/// detail-route every tile concurrently, stitch the seams, and
/// (optionally) repair the leftovers flat. See the [crate docs](crate)
/// for the pipeline.
///
/// The routed database is a pure function of the problem and the
/// configuration: any [`GlobalConfig::jobs`] value yields byte-identical
/// checksums, stats and failed sets.
///
/// # Panics
///
/// Panics if an internal invariant breaks (a pasted tile trace
/// conflicting with another tile's wiring would be a bug, not an input
/// error).
pub fn route_hierarchical(problem: &Problem, cfg: &GlobalConfig) -> GlobalOutcome {
    route_hierarchical_observed(problem, cfg, &mut NopObserver)
}

/// [`route_hierarchical`] with an observer attached to the seam-stitch
/// repair pass: band-local events are forwarded with global net ids.
/// The tile batch itself is unobserved — its sub-problems renumber nets
/// per tile, so per-net events there would be meaningless to the caller.
///
/// # Panics
///
/// Panics if an internal invariant breaks, like [`route_hierarchical`].
pub fn route_hierarchical_observed(
    problem: &Problem,
    cfg: &GlobalConfig,
    observer: &mut dyn RouteObserver,
) -> GlobalOutcome {
    route_chip(problem, cfg, &ChipSupervision::none(), None, observer)
}

/// [`route_hierarchical`] with per-tile supervision and an optional
/// crash-safe journal. Every tile runs through a [`Supervisor`] built
/// from `supervision` — retry under escalated budgets with a
/// per-tile-seeded schedule perturbation (`supervision.seed ^ tile`),
/// then the per-tile fallback chain, then best-snapshot salvage — and,
/// with a journal, finished tiles are persisted as they complete and
/// replayed on resume ([`ChipJournal`]), yielding a byte-identical
/// outcome after a mid-run kill.
///
/// The result is still a pure function of problem, configuration and
/// supervision at any [`GlobalConfig::jobs`] value; journal write
/// errors never abort the run (they latch into
/// [`GlobalOutcome::journal_error`]).
///
/// # Panics
///
/// Panics if an internal invariant breaks, like [`route_hierarchical`].
pub fn route_hierarchical_supervised(
    problem: &Problem,
    cfg: &GlobalConfig,
    supervision: &ChipSupervision,
    journal: Option<&ChipJournal>,
) -> GlobalOutcome {
    route_chip(problem, cfg, supervision, journal, &mut NopObserver)
}

/// The shared pipeline behind every entry point: `supervision` drives
/// the tile stage and arms any seam faults.
fn route_chip(
    problem: &Problem,
    cfg: &GlobalConfig,
    supervision: &ChipSupervision,
    journal: Option<&ChipJournal>,
    observer: &mut dyn RouteObserver,
) -> GlobalOutcome {
    let tiles = TileGrid::new(problem, cfg.tile);
    let base = problem.base_grid();

    // Chip-scale precheck: nets a sound certificate already condemns
    // are excluded from planning, crossing assignment and the fallback.
    let (precertified, analyze_certificates) = if cfg.analyze {
        let report = route_analyze::analyze_chip(problem, cfg.tile);
        (report.certified_nets(), report.certificates().len())
    } else {
        (BTreeSet::new(), 0)
    };
    let global_plan = plan_with(problem, &tiles, cfg.order, &precertified);

    // All real pin slots, to keep crossings off them.
    let pin_slots: BTreeSet<(Point, Layer)> =
        problem.nets().iter().flat_map(|n| n.pins.iter().map(|p| (p.at, p.layer))).collect();

    // Nets crossing each edge.
    let mut edge_nets: BTreeMap<TileEdge, Vec<NetId>> = BTreeMap::new();
    for (idx, edges) in global_plan.net_edges.iter().enumerate() {
        for &e in edges {
            edge_nets.entry(e).or_default().push(NetId(idx as u32));
        }
    }

    // Assign concrete boundary cells per crossing. Nets the planner gave
    // up on are dropped up front; nets whose crossings cannot all be
    // assigned join them. Dropped nets keep only their real pins (as
    // blockers) and fall through to the flat fallback.
    let mut dropped: BTreeSet<NetId> = global_plan.unplanned().iter().copied().collect();
    dropped.extend(precertified.iter().copied());
    let mut crossing_pins: HashMap<(TileId, NetId), Vec<Pin>> = HashMap::new();
    let mut edge_cross: HashMap<(TileEdge, NetId), (Point, Point, Layer)> = HashMap::new();
    for (&edge, nets) in &edge_nets {
        let (layer, pairs) = tiles.edge_cells(edge, &base);
        let usable: Vec<(Point, Point)> = pairs
            .into_iter()
            .filter(|&(pa, pb)| {
                !pin_slots.contains(&(pa, layer)) && !pin_slots.contains(&(pb, layer))
            })
            .collect();
        // Order nets along the edge by the centroid of their pins on the
        // edge's axis, so crossings do not needlessly swap inside tiles.
        let mut ordered = nets.clone();
        let centroid = |id: NetId| -> i64 {
            let net = problem.net(id);
            let sum: i64 = net
                .pins
                .iter()
                .map(|p| if edge.is_horizontal() { p.at.y as i64 } else { p.at.x as i64 })
                .sum();
            sum / net.pins.len() as i64
        };
        ordered.sort_by_key(|&id| (centroid(id), id.0));
        if ordered.len() > usable.len() {
            // Over-subscribed edge: the overflowing nets go flat.
            for &id in &ordered[usable.len()..] {
                dropped.insert(id);
            }
            ordered.truncate(usable.len());
        }
        // Spread the kept nets evenly across the usable offsets.
        let n = ordered.len();
        for (i, &id) in ordered.iter().enumerate() {
            let slot = if n <= 1 { usable.len() / 2 } else { i * (usable.len() - 1) / (n - 1) };
            let (pa, pb) = usable[slot];
            crossing_pins.entry((edge.a, id)).or_default().push(Pin::new(pa, layer));
            crossing_pins.entry((edge.b, id)).or_default().push(Pin::new(pb, layer));
            edge_cross.insert((edge, id), (pa, pb, layer));
        }
    }
    // Purge every crossing of dropped nets.
    crossing_pins.retain(|(_, id), _| !dropped.contains(id));
    edge_cross.retain(|(_, id), _| !dropped.contains(id));
    // Crossing-cell reservations: seam repair must never route one net
    // through another net's (possibly still unwired) crossing cell.
    let mut cross_owner: HashMap<(Point, Layer), NetId> = HashMap::new();
    for (&(_, id), &(pa, pb, layer)) in &edge_cross {
        cross_owner.insert((pa, layer), id);
        cross_owner.insert((pb, layer), id);
    }

    // Per-tile nets: real pins plus crossings.
    let mut tile_nets: BTreeMap<TileId, BTreeMap<NetId, Vec<Pin>>> = BTreeMap::new();
    for net in problem.nets() {
        for pin in &net.pins {
            tile_nets
                .entry(tiles.tile_of(pin.at))
                .or_default()
                .entry(net.id)
                .or_default()
                .push(*pin);
        }
    }
    for ((tile, id), pins) in &crossing_pins {
        tile_nets.entry(*tile).or_default().entry(*id).or_default().extend(pins.iter().copied());
    }

    // Build every tile sub-problem; the tile stage routes them
    // concurrently (tiles are disjoint, so their routings are
    // independent) and delivers results in input order, which keeps the
    // paste deterministic at any job count. Dropped nets keep only their
    // real pins (as blockers) and stay out of tiles they only cross.
    let layers = Layer::ALL.into_iter().take(problem.layers() as usize);
    let (windows, subs): (Vec<Window>, Vec<Problem>) = tile_nets
        .iter()
        .map(|(tile, nets)| {
            let rect = tiles.rect(*tile);
            let blocked = rect
                .cells()
                .flat_map(|p| layers.clone().map(move |layer| (p, layer)))
                .filter(|&(p, layer)| base.occupant(p, layer) == Occupant::Blocked);
            let members = nets.iter().filter_map(|(&id, pins)| {
                let kept: Vec<(Point, Layer)> = pins
                    .iter()
                    .map(|p| (p.at, p.layer))
                    .filter(|slot| !dropped.contains(&id) || pin_slots.contains(slot))
                    .collect();
                (!kept.is_empty()).then_some((id, kept))
            });
            Window::build(problem, rect, blocked, members)
                .expect("tile sub-problems are valid by construction")
        })
        .unzip();

    // Journal establishment: per-tile fingerprints gate replay, so an
    // edited chip re-routes instead of replaying stale wiring.
    if let Some(j) = journal {
        let fps: Vec<u64> =
            subs.iter().zip(&windows).map(|(s, w)| tile_fingerprint(s, w)).collect();
        j.establish(&fps);
    }

    let router = MightyRouter::new(cfg.router);
    let outcomes = route_tiles(&subs, cfg, supervision, journal);
    let resumed_tiles = outcomes.iter().filter(|o| matches!(o, TileOutcome::Replayed(_))).count();

    let mut chip = ChipStats {
        crossing_pins: edge_cross.len(),
        seams: edge_cross.keys().map(|(e, _)| *e).collect::<BTreeSet<_>>().len(),
        analyze_certificates,
        certified_nets: precertified.len(),
        ..ChipStats::default()
    };

    let mut db = RouteDb::new(problem);
    let mut tile_failures: BTreeSet<NetId> = BTreeSet::new();
    for (window, outcome) in windows.iter().zip(outcomes) {
        let (TileOutcome::Live(out) | TileOutcome::Replayed(out)) = outcome;
        account_recovery(&mut chip, &out.path);
        match &out.result {
            Some(Ok(routing)) => {
                // Complete or salvaged: both carry real metal — a
                // salvaged tile feeds the seam stage its best snapshot
                // instead of an empty tile.
                chip.tiles_routed += 1;
                tile_failures.extend(routing.failed.iter().map(|id| window.nets[id.index()]));
                window.paste(&routing.db, &mut db);
            }
            _ => {
                // No attempt left a snapshot: the tile contributes no
                // wiring and all its nets ride on the stitch and
                // fallback passes.
                chip.tiles_errored += 1;
                tile_failures.extend(window.nets.iter().copied());
            }
        }
    }

    // Incomplete nets after the tile paste, recounted after the stitch
    // pass.
    let mut incomplete: BTreeSet<NetId> = (0..problem.nets().len() as u32)
        .map(NetId)
        .filter(|&id| !db.is_net_connected(id))
        .collect();
    let after_tiles = incomplete.len();

    // Seam stitching: for every tile edge whose crossing nets are still
    // disconnected, run the rip-up router on a band around the boundary,
    // escalating per edge until its nets connect or the ladder is spent:
    //
    //   rung 0  base band, in-band wiring replayed         (historical)
    //   rung 1  band widened 2x, in-band wiring replayed
    //   rung 2  band widened 4x, in-band wiring discarded  (re-anchor)
    //   rung 3  the edge's nets ripped, then a whole-die reroute
    //
    // A seam whose rung 0 succeeds behaves byte-identically to earlier
    // releases; the ladder only engages where they failed. Seam faults
    // (`VROUTE_FAULT=...@seam`) fire at rung entry, before any database
    // mutation, so a faulted rung escalates instead of corrupting state.
    if cfg.stitch {
        let seam_fault = supervision.fault.as_ref();
        let mut arena = SearchArena::new();
        for (&edge, nets) in &edge_nets {
            let repair: Vec<NetId> = nets
                .iter()
                .copied()
                .filter(|&id| !dropped.contains(&id) && !db.is_net_connected(id))
                .collect();
            if repair.is_empty() {
                continue;
            }
            chip.seams_repaired += 1;
            for rung in 0u32..4 {
                let remaining: Vec<NetId> =
                    repair.iter().copied().filter(|&id| !db.is_net_connected(id)).collect();
                if remaining.is_empty() {
                    break;
                }
                if rung > 0 {
                    chip.seam_escalations += 1;
                }
                // An injected panic (a real unwind, isolated) or failure
                // loses the rung and the ladder escalates; a delay lets
                // the rung run late.
                let fault = seam_fault.and_then(|f| f.at(FaultSite::Seam, rung));
                if let Some(Err(_)) = fault.map(EngineFault::inject) {
                    continue;
                }
                let (scale, mode) = match rung {
                    0 | 1 => (1 << rung, StitchMode::Replay),
                    2 => (4, StitchMode::Fresh),
                    _ => {
                        // Last rung: rip each stubborn net wholesale so
                        // its broken seam wiring cannot block it, then
                        // reroute flat and incrementally. The reroute
                        // queues every incomplete net on the die, not
                        // just this edge's.
                        for &id in &remaining {
                            let tids: Vec<TraceId> = db.traces(id).map(|(tid, _)| tid).collect();
                            for tid in tids {
                                db.rip_up(tid).expect("listed as live above");
                            }
                        }
                        db = router
                            .try_route_incremental(problem, db)
                            .expect("the hierarchical database is built for this problem")
                            .into_db();
                        break;
                    }
                };
                stitch_edge(
                    problem,
                    &base,
                    &tiles,
                    &router,
                    edge,
                    &remaining,
                    &edge_cross,
                    &cross_owner,
                    &mut db,
                    &mut arena,
                    observer,
                    &mut chip,
                    scale,
                    mode,
                );
            }
        }
        incomplete.retain(|&id| !db.is_net_connected(id));
        chip.seam_completed = after_tiles - incomplete.len();
    }

    // Post-stitch checkpoint: a resumed run must reproduce the exact
    // pre-fallback database, or its replayed tiles were not equivalent.
    let mut journal_error: Option<String> = None;
    checkpoint(journal, "stitch", &db, &mut journal_error);

    let mut stats = GlobalStats {
        tiles: (tiles.cols(), tiles.rows()),
        crossings: global_plan.crossings,
        overflowed_edges: global_plan.overflowed_edges,
        dropped: dropped.len(),
        tile_failures: tile_failures.len(),
        fallback_completed: 0,
    };

    // Certified-unroutable nets are not fallback candidates: a sound
    // certificate binds the flat router too, so retrying them is pure
    // waste. If nothing else is incomplete, the fallback is skipped
    // wholesale.
    let fallback_candidates: BTreeSet<NetId> =
        incomplete.difference(&precertified).copied().collect();
    let mut db = if cfg.fallback && !fallback_candidates.is_empty() {
        let outcome = router
            .try_route_incremental(problem, db)
            .expect("the hierarchical database is built for this problem");
        stats.fallback_completed =
            fallback_candidates.iter().filter(|&&id| !outcome.failed().contains(&id)).count();
        outcome.into_db()
    } else {
        db
    };

    // Cleanup: wiring abandoned by failed tiles, ripped seams or the
    // fallback that ended up in components touching no pin is pruned —
    // it only wastes capacity and trips the dead-wire lint (`L008`).
    for id in (0..problem.nets().len() as u32).map(NetId) {
        chip.pruned_steps += db.prune_dangling(id);
    }

    // The failed set is always recomputed from the final database, so
    // planning-dropped nets that never reached a tile job count too.
    let failed: Vec<NetId> = (0..problem.nets().len() as u32)
        .map(NetId)
        .filter(|&id| !db.is_net_connected(id))
        .collect();

    checkpoint(journal, "final", &db, &mut journal_error);
    if journal_error.is_none() {
        journal_error = journal.and_then(ChipJournal::take_error);
    }

    GlobalOutcome { db, failed, stats, chip, resumed_tiles, journal_error }
}

/// One tile's result entering the paste loop.
enum TileOutcome {
    /// Routed in this run.
    Live(SupervisedOutcome),
    /// A previous run's outcome, replayed from the journal and
    /// validated against the tile ([`replayed_outcome`]).
    Replayed(SupervisedOutcome),
}

/// Records a journal checkpoint of `db` under `stage`. On resume, a
/// checksum that differs from the one the previous run recorded means
/// the replayed tiles were not equivalent; the first such divergence
/// latches into `error`.
fn checkpoint(
    journal: Option<&ChipJournal>,
    stage: &str,
    db: &RouteDb,
    error: &mut Option<String>,
) {
    let Some(j) = journal else { return };
    let checksum = db.checksum();
    if error.is_none() {
        if let Some(prev) = j.replayed_checkpoint(stage).filter(|&prev| prev != checksum) {
            *error = Some(format!(
                "resume diverged at the {stage} checkpoint: journal {prev:016x}, live {checksum:016x}"
            ));
        }
    }
    j.checkpoint(stage, checksum);
}

/// Bumps the supervised recovery counters for one tile's path.
fn account_recovery(chip: &mut ChipStats, path: &RecoveryPath) {
    match path {
        RecoveryPath::Retried { .. } => chip.tiles_retried += 1,
        RecoveryPath::FellBack { .. } => chip.tiles_fell_back += 1,
        RecoveryPath::Salvaged => chip.tiles_salvaged += 1,
        RecoveryPath::Direct | RecoveryPath::Failed => {}
    }
}

/// Fingerprint of a tile sub-problem — origin, dimensions, obstacles,
/// nets and pins — used to key journal records so an edited chip never
/// replays stale wiring.
fn tile_fingerprint(sub: &Problem, window: &Window) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = write!(
        text,
        "tile {},{} {}x{} L{};",
        window.origin.x,
        window.origin.y,
        sub.width(),
        sub.height(),
        sub.layers()
    );
    for (at, layer) in sub.obstacles() {
        let _ = write!(text, "o{},{},{:?};", at.x, at.y, layer.map(Layer::index));
    }
    for net in sub.nets() {
        let _ = write!(text, "n{}:", net.name);
        for pin in &net.pins {
            let _ = write!(text, "{},{},{};", pin.at.x, pin.at.y, pin.layer.index());
        }
    }
    RunJournal::fingerprint(&text)
}

/// Builds the journal record for one live supervised tile outcome.
fn tile_record(
    index: usize,
    fingerprint: u64,
    sub: &Problem,
    outcome: &SupervisedOutcome,
) -> ChipTileRecord {
    let mut record = ChipTileRecord {
        index,
        fingerprint,
        status: outcome.status(),
        path: outcome.path.clone(),
        attempts: outcome.attempts,
        routes: Vec::new(),
        failed: Vec::new(),
        error: None,
    };
    match &outcome.result {
        Some(Ok(routing)) => {
            // One flat `[net, x, y, layer, ...]` array per trace, in
            // paste order, so a replay pastes exactly like live.
            for net in sub.nets() {
                for (_, trace) in routing.db.traces(net.id) {
                    let mut flat = vec![i64::from(net.id.0)];
                    for s in trace.steps() {
                        flat.extend([i64::from(s.at.x), i64::from(s.at.y), s.layer.index() as i64]);
                    }
                    record.routes.push(flat);
                }
            }
            record.failed = routing.failed.iter().map(|id| id.0).collect();
        }
        Some(Err(e)) => record.error = Some(e.to_string()),
        None => {}
    }
    if let Some(salvage) = &outcome.salvage {
        record.error = Some(salvage.terminal.clone());
    }
    record
}

/// Rebuilds a journal-replayed tile as a supervised outcome on its
/// sub-problem. `None` — the tile then routes live — when the record
/// does not fit the tile: an undeclared net id, a step outside the tile
/// or its layers, a broken trace, wiring that collides with an obstacle
/// or another net, or a failed id out of range.
fn replayed_outcome(sub: &Problem, record: ChipTileRecord) -> Option<SupervisedOutcome> {
    let routed = matches!(record.status, InstanceStatus::Complete | InstanceStatus::Salvaged);
    let result = if routed { Some(Ok(replayed_routing(sub, &record)?)) } else { None };
    Some(SupervisedOutcome { path: record.path, attempts: record.attempts, result, salvage: None })
}

/// Commits a record's flat traces into a fresh database for the tile,
/// checking every value before it is used.
fn replayed_routing(sub: &Problem, record: &ChipTileRecord) -> Option<Routing> {
    let net = |id: i64| u32::try_from(id).ok().filter(|&id| (id as usize) < sub.nets().len());
    let coord = |v: i64, len: u32| i32::try_from(v).ok().filter(|&v| v >= 0 && (v as u32) < len);
    let layer = |l: i64| usize::try_from(l).ok().filter(|&l| l < usize::from(sub.layers()));
    let mut db = RouteDb::new(sub);
    for flat in &record.routes {
        let (&id, coords) = flat.split_first()?;
        if coords.len() % 3 != 0 {
            return None;
        }
        let steps = coords
            .chunks(3)
            .map(|c| {
                let at = Point::new(coord(c[0], sub.width())?, coord(c[1], sub.height())?);
                Some(Step::new(at, *Layer::ALL.get(layer(c[2])?)?))
            })
            .collect::<Option<Vec<Step>>>()?;
        db.commit(NetId(net(id)?), Trace::from_steps(steps).ok()?).ok()?;
    }
    let failed = record.failed.iter().map(|&id| net(i64::from(id)).map(NetId));
    Some(Routing { db, failed: failed.collect::<Option<_>>()? })
}

/// Routes one tile through the full recovery chain: retry with a
/// per-tile-seeded schedule perturbation, the per-tile fallback chain,
/// then best-snapshot salvage.
fn supervise_tile(
    cfg: &GlobalConfig,
    sup: &ChipSupervision,
    sub: &Problem,
    tile: usize,
) -> SupervisedOutcome {
    let retry =
        RetryPolicy { attempts: sup.retries.saturating_add(1), seed: sup.seed ^ tile as u64 };
    let mut supervisor = Supervisor::new(cfg.router, retry);
    if sup.fallback {
        supervisor = supervisor.with_fallbacks(FallbackChain::lee());
    }
    if let Some(fault) = &sup.fault {
        supervisor = supervisor.with_fault(fault.clone());
    }
    supervisor.route_supervised(sub, FaultSite::Tile(tile), None)
}

/// The tile stage: on the ordered worker pool, each tile either replays
/// from the journal or routes through its [`Supervisor`], with its
/// outcome persisted (fsync'd) as soon as it is known. Results come back
/// in tile order at any worker count, so the paste stays deterministic.
fn route_tiles(
    subs: &[Problem],
    cfg: &GlobalConfig,
    sup: &ChipSupervision,
    journal: Option<&ChipJournal>,
) -> Vec<TileOutcome> {
    mighty::map_ordered(cfg.jobs, subs.len(), |i| {
        let replayed = journal.and_then(|j| j.replay(i));
        if let Some(outcome) = replayed.and_then(|r| replayed_outcome(&subs[i], r)) {
            return TileOutcome::Replayed(outcome);
        }
        if let Some(j) = journal {
            j.begin(i);
        }
        let outcome = supervise_tile(cfg, sup, &subs[i], i);
        if let Some(j) = journal {
            let fp = j.tile_fingerprint(i).unwrap_or(0);
            j.finish(&tile_record(i, fp, &subs[i], &outcome));
        }
        TileOutcome::Live(outcome)
    })
}

/// How a seam repair treats the repair nets' pre-existing in-band
/// wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StitchMode {
    /// Replay it into the band database as a starting point (the
    /// rip-up router may still push or rip it).
    Replay,
    /// Discard it and re-anchor: only the cut points survive, so wiring
    /// that painted the band into a corner cannot do so again.
    Fresh,
}

/// Repairs one seam: rips the repair nets' wiring inside a band around
/// `edge` (widened by `scale`), rebuilds it as a sub-problem (foreign
/// wiring, foreign pins and reserved crossing cells become obstacles;
/// crossing cells, band pins and the cut points of the net's own wiring
/// become pins), and re-routes it incrementally with the rip-up router.
#[allow(clippy::too_many_arguments)]
fn stitch_edge(
    problem: &Problem,
    base: &Grid,
    tiles: &TileGrid,
    router: &MightyRouter,
    edge: TileEdge,
    repair: &[NetId],
    edge_cross: &HashMap<(TileEdge, NetId), (Point, Point, Layer)>,
    cross_owner: &HashMap<(Point, Layer), NetId>,
    db: &mut RouteDb,
    arena: &mut SearchArena,
    observer: &mut dyn RouteObserver,
    chip: &mut ChipStats,
    scale: u32,
    mode: StitchMode,
) {
    let ra = tiles.rect(edge.a);
    let rb = tiles.rect(edge.b);
    let w = (STITCH_BAND * scale) as i32;
    let band = if edge.is_horizontal() {
        let x0 = (ra.max().x - (w - 1)).max(ra.min().x);
        let x1 = (rb.min().x + (w - 1)).min(rb.max().x);
        Rect::new(Point::new(x0, ra.min().y), Point::new(x1, ra.max().y))
    } else {
        let y0 = (ra.max().y - (w - 1)).max(ra.min().y);
        let y1 = (rb.min().y + (w - 1)).min(rb.max().y);
        Rect::new(Point::new(ra.min().x, y0), Point::new(ra.max().x, y1))
    };
    let repair_set: BTreeSet<NetId> = repair.iter().copied().collect();

    // Surgery: rip every trace of a repair net that enters the band,
    // re-commit its out-of-band runs unchanged, keep its in-band runs
    // for replay, and record the cut points as anchors the repair must
    // keep connected.
    let mut kept: BTreeMap<NetId, Vec<Trace>> = BTreeMap::new();
    let mut anchors: BTreeMap<NetId, BTreeSet<(Point, Layer)>> = BTreeMap::new();
    for &id in repair {
        let cut: Vec<TraceId> = db
            .traces(id)
            .filter(|(_, t)| t.steps().iter().any(|s| band.contains(s.at)))
            .map(|(tid, _)| tid)
            .collect();
        for tid in cut {
            let trace = db.rip_up(tid).expect("listed as live above");
            let steps = trace.steps();
            let mut run: Vec<Step> = Vec::new();
            let mut run_inside = band.contains(steps[0].at);
            for (i, &s) in steps.iter().enumerate() {
                let inside = band.contains(s.at);
                if inside != run_inside {
                    let anchor = if run_inside { steps[i - 1] } else { s };
                    anchors.entry(id).or_default().insert((anchor.at, anchor.layer));
                    flush_run(db, &mut kept, id, &mut run, run_inside);
                    run_inside = inside;
                }
                run.push(s);
            }
            flush_run(db, &mut kept, id, &mut run, run_inside);
        }
    }

    // The band sub-problem: everything the repair nets may not touch is
    // an obstacle — base blocks, wiring and pins of foreign nets (pins
    // are grid-marked at construction), and crossing cells reserved for
    // nets outside the repair set.
    let mut blocked: BTreeSet<(Point, Layer)> = BTreeSet::new();
    for p in band.cells() {
        for layer in Layer::ALL.into_iter().take(problem.layers() as usize) {
            let foreign_wire = matches!(db.grid().occupant(p, layer), Occupant::Net(n) if !repair_set.contains(&n));
            let foreign_cross =
                cross_owner.get(&(p, layer)).is_some_and(|n| !repair_set.contains(n));
            if base.occupant(p, layer) == Occupant::Blocked || foreign_wire || foreign_cross {
                blocked.insert((p, layer));
            }
        }
    }
    let mut members: Vec<(NetId, BTreeSet<(Point, Layer)>)> = Vec::new();
    for &id in repair {
        let mut pins: BTreeSet<(Point, Layer)> = BTreeSet::new();
        let &(pa, pb, layer) = edge_cross.get(&(edge, id)).expect("repair nets cross this edge");
        pins.insert((pa, layer));
        pins.insert((pb, layer));
        for p in &problem.net(id).pins {
            if band.contains(p.at) {
                pins.insert((p.at, p.layer));
            }
        }
        if let Some(set) = anchors.get(&id) {
            pins.extend(set.iter().copied());
        }
        members.push((id, pins));
    }
    // Foreign wiring can legally sit on a repair net's crossing cell:
    // the whole-die reroute of an *earlier* edge's rung 3 routes over
    // the full grid, where reservations do not bind. Such a net cannot
    // be repaired in this band — restore its ripped wiring and leave it
    // to this edge's rung 3, the whole-die reroute. Once evicted, the net is foreign to the
    // band: its restored wiring, its grid-marked pins, and its
    // reserved crossing cells all join the obstacle set, which may
    // evict further nets — iterate to a fixpoint before any net is
    // declared in the band problem.
    loop {
        let mut evicted = false;
        members.retain(|(id, pins)| {
            if !pins.iter().any(|p| blocked.contains(p)) {
                return true;
            }
            for t in kept.remove(id).into_iter().flatten() {
                for s in t.steps() {
                    blocked.insert((s.at, s.layer));
                }
                db.commit(*id, t).expect("restoring just-ripped wiring");
            }
            blocked.extend(pins.iter().copied());
            evicted = true;
            false
        });
        if !evicted {
            break;
        }
    }
    if members.is_empty() {
        return;
    }
    let members = members.iter().map(|(id, pins)| (*id, pins.iter().copied()));
    let (window, band_problem) = match Window::build(problem, band, blocked, members) {
        Ok(built) => built,
        Err(e) => {
            // A reservation hole would surface here; restore the ripped
            // wiring and leave the seam to the flat fallback.
            debug_assert!(false, "seam band problem must build: {e}");
            for (id, runs) in kept {
                for t in runs {
                    db.commit(id, t).expect("restoring just-ripped wiring");
                }
            }
            return;
        }
    };

    // Replay the kept in-band runs, then let the rip-up router repair
    // the band incrementally: it may push or rip the replayed wiring.
    // In [`StitchMode::Fresh`] the kept runs are discarded instead —
    // the band starts empty and only the anchors constrain it.
    let mut band_db = RouteDb::new(&band_problem);
    if mode == StitchMode::Replay {
        for (i, id) in window.nets.iter().enumerate() {
            for t in kept.get(id).into_iter().flatten() {
                band_db
                    .commit(NetId(i as u32), window.shift(t, -1))
                    .expect("kept runs lie in the band, off foreign wiring");
            }
        }
    }
    let mut seam_obs = SeamObserver { map: &window.nets, inner: observer, ripups: 0 };
    let outcome = router
        .try_route_incremental_observed_in(&band_problem, band_db, arena, &mut seam_obs)
        .expect("the band database is built for the band problem");
    chip.seam_ripups += seam_obs.ripups;
    window.paste(outcome.db(), db);
}

/// Flushes an accumulated sub-path of a ripped trace: out-of-band runs
/// go straight back into the database, in-band runs are kept for replay
/// inside the band sub-problem.
fn flush_run(
    db: &mut RouteDb,
    kept: &mut BTreeMap<NetId, Vec<Trace>>,
    id: NetId,
    run: &mut Vec<Step>,
    inside: bool,
) {
    if run.is_empty() {
        return;
    }
    let t = Trace::from_steps(std::mem::take(run)).expect("a contiguous sub-path");
    if inside {
        kept.entry(id).or_default().push(t);
    } else {
        db.commit(id, t).expect("re-committing just-ripped wiring");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mighty::RouterConfig;
    use route_benchdata::gen::{ChipGen, ObstructedGen, SwitchboxGen};
    use route_model::{EventLog, PinSide};
    use route_verify::verify;

    fn hierarchical(problem: &Problem, tile: u32, fallback: bool) -> GlobalOutcome {
        let cfg = GlobalConfig { tile, fallback, ..GlobalConfig::default() };
        let out = route_hierarchical(problem, &cfg);
        let report = verify(problem, out.db());
        assert!(
            report.is_clean() || report.is_legal_but_incomplete(),
            "hierarchical routing must stay legal: {report}"
        );
        out
    }

    #[test]
    fn straight_nets_route_across_tiles() {
        let mut b = ProblemBuilder::switchbox(32, 8);
        b.net("a").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 5);
        b.net("b").pin_side(PinSide::Left, 5).pin_side(PinSide::Right, 2);
        let p = b.build().unwrap();
        let out = hierarchical(&p, 8, false);
        assert!(out.is_complete(), "failed: {:?} ({:?})", out.failed(), out.stats());
        assert!(out.stats().crossings >= 6, "both nets cross three edges");
    }

    #[test]
    fn random_floorplan_routes_without_fallback_mostly() {
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let out = hierarchical(&p, 16, false);
        // Most nets complete through the tiled phase alone.
        assert!(
            out.failed().len() <= 3,
            "too many tiled-phase failures: {:?} ({:?})",
            out.failed(),
            out.stats()
        );
    }

    #[test]
    fn fallback_completes_what_tiles_cannot() {
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let without = hierarchical(&p, 16, false);
        let with = hierarchical(&p, 16, true);
        assert!(with.failed().len() <= without.failed().len());
        if without.failed().len() > with.failed().len() {
            assert!(with.stats().fallback_completed > 0);
        }
    }

    #[test]
    fn obstructed_floorplan_stays_legal() {
        let p =
            ObstructedGen { width: 36, height: 36, nets: 10, obstacle_pct: 12, seed: 4 }.build();
        let out = hierarchical(&p, 12, true);
        let report = verify(&p, out.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
    }

    #[test]
    fn multi_pin_net_connects_through_tile_tree() {
        let mut b = ProblemBuilder::switchbox(24, 24);
        b.net("t")
            .pin_side(PinSide::Left, 12)
            .pin_side(PinSide::Right, 12)
            .pin_side(PinSide::Top, 12)
            .pin_side(PinSide::Bottom, 12);
        let p = b.build().unwrap();
        let out = hierarchical(&p, 8, false);
        assert!(out.is_complete(), "failed: {:?} ({:?})", out.failed(), out.stats());
    }

    #[test]
    fn intra_tile_problem_degenerates_to_flat() {
        let mut b = ProblemBuilder::switchbox(8, 8);
        b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
        let p = b.build().unwrap();
        let out = hierarchical(&p, 16, false);
        assert!(out.is_complete());
        assert_eq!(out.stats().tiles, (1, 1));
        assert_eq!(out.stats().crossings, 0);
    }

    /// Regression test for the dropped-net completion lie: a net the
    /// planner can never route over the tile graph (capacity-zero cut)
    /// is handed to no tile job, so a failed set assembled from tile
    /// results alone would miss it and `is_complete` would claim
    /// success. The failed set must come from the final database.
    #[test]
    fn planning_dropped_nets_count_as_failed() {
        let mut b = ProblemBuilder::switchbox(16, 8);
        // A full-stack wall on the boundary columns between the tiles.
        b.obstacle_rect(Rect::with_size(Point::new(7, 0), 2, 8));
        b.net("cut").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        let p = b.build().unwrap();
        let out = hierarchical(&p, 8, false);
        assert_eq!(out.stats().dropped, 1, "the net is dropped at planning time");
        assert!(!out.is_complete(), "a dropped net is not a routed net");
        assert_eq!(out.failed(), &[NetId(0)]);
        // With the fallback enabled the wall still blocks everything:
        // the net must stay failed rather than vanish from accounting.
        let out = hierarchical(&p, 8, true);
        assert!(!out.is_complete());
        assert_eq!(out.failed(), &[NetId(0)]);
    }

    #[test]
    fn analyze_gate_skips_certified_nets_and_their_fallback() {
        let mut b = ProblemBuilder::switchbox(16, 8);
        // A full-stack wall on the boundary columns: F006 at tile 8.
        b.obstacle_rect(Rect::with_size(Point::new(7, 0), 2, 8));
        b.net("cut").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
        let p = b.build().unwrap();
        let cfg = GlobalConfig { tile: 8, analyze: true, ..GlobalConfig::default() };
        let out = route_hierarchical(&p, &cfg);
        assert!(!out.is_complete());
        assert_eq!(out.failed(), &[NetId(0)]);
        assert!(out.chip_stats().analyze_certificates > 0, "{:?}", out.chip_stats());
        assert_eq!(out.chip_stats().certified_nets, 1);
        assert_eq!(out.stats().fallback_completed, 0, "certified nets skip the fallback");
        // On a feasible chip the gate finds nothing and the result is
        // byte-identical to a run without it.
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let off = route_hierarchical(&p, &GlobalConfig { tile: 16, ..GlobalConfig::default() });
        let on = route_hierarchical(
            &p,
            &GlobalConfig { tile: 16, analyze: true, ..GlobalConfig::default() },
        );
        assert_eq!(off.db().checksum(), on.db().checksum());
        assert_eq!(off.failed(), on.failed());
        assert_eq!(on.chip_stats().certified_nets, 0);
    }

    #[test]
    fn job_count_is_checksum_inert() {
        let p =
            ChipGen { width: 64, height: 64, nets: 260, macros: 4, ..ChipGen::small(3) }.build();
        let route = |jobs: usize| {
            let cfg = GlobalConfig { tile: 16, jobs, ..GlobalConfig::default() };
            route_hierarchical(&p, &cfg)
        };
        let one = route(1);
        let four = route(4);
        assert_eq!(one.db().checksum(), four.db().checksum());
        assert_eq!(one.failed(), four.failed());
        assert_eq!(one.stats(), four.stats());
        assert_eq!(one.chip_stats(), four.chip_stats());
    }

    #[test]
    fn chip_stats_account_for_the_tile_batch() {
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let out = hierarchical(&p, 16, true);
        let chip = out.chip_stats();
        assert_eq!(chip.tiles_routed, 4, "every tile routes on this clean instance");
        assert_eq!(chip.tiles_errored, 0);
        assert!(chip.crossing_pins > 0);
        assert!(chip.seams > 0);
        assert!(chip.seams_repaired <= chip.seams);
    }

    #[test]
    fn seams_repaired_counts_only_seams_that_enter_the_ladder() {
        // The `vroute chip --width 96 --height 96 --nets 400 --tile 16
        // --seed 1` instance: one seam's ladder ends in the whole-die
        // reroute, which completes every other stitch net too, so no
        // later seam has anything left to repair.
        let p =
            ChipGen { width: 96, height: 96, nets: 400, macros: 6, ..ChipGen::small(1) }.build();
        let out = route_hierarchical(&p, &GlobalConfig { tile: 16, ..GlobalConfig::default() });
        assert!(out.is_complete(), "{:?}", out.failed());
        let chip = out.chip_stats();
        assert_eq!(chip.seams_repaired, 1, "{chip:?}");
        assert_eq!(chip.seam_completed, 18, "{chip:?}");
    }

    #[test]
    fn seam_events_carry_global_net_ids() {
        let p =
            ChipGen { width: 48, height: 48, nets: 170, macros: 3, ..ChipGen::small(11) }.build();
        let cfg = GlobalConfig { tile: 12, fallback: false, ..GlobalConfig::default() };
        let mut log = EventLog::default();
        let observed = route_hierarchical_observed(&p, &cfg, &mut log);
        // Observation is inert: same database as the unobserved run.
        let plain = route_hierarchical(&p, &cfg);
        assert_eq!(observed.db().checksum(), plain.db().checksum());
        assert_eq!(observed.failed(), plain.failed());
        // Every forwarded event names real global nets.
        use route_model::RouteEvent;
        for ev in log.events() {
            let ids: Vec<NetId> = match *ev {
                RouteEvent::NetScheduled { net }
                | RouteEvent::NetCommitted { net }
                | RouteEvent::NetFailed { net }
                | RouteEvent::SearchDone { net, .. } => vec![net],
                RouteEvent::WeakModification { net, victim }
                | RouteEvent::StrongRipup { net, victim, .. } => vec![net, victim],
                RouteEvent::PenaltyEscalation { victim, .. } => vec![victim],
            };
            for id in ids {
                assert!(id.index() < p.nets().len(), "event names unknown net {id:?}");
            }
        }
        if observed.chip_stats().seams_repaired > 0 {
            assert!(!log.events().is_empty(), "seam repairs must emit events");
        }
    }

    #[test]
    fn supervised_flow_without_recovery_matches_plain_routing() {
        // Supervision with zero retries and no fallback routes each
        // tile exactly once, like the plain engine path: the database
        // must come out byte-identical.
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let cfg = GlobalConfig { tile: 16, ..GlobalConfig::default() };
        let plain = route_hierarchical(&p, &cfg);
        let supervised = route_hierarchical_supervised(&p, &cfg, &ChipSupervision::none(), None);
        assert_eq!(plain.db().checksum(), supervised.db().checksum());
        assert_eq!(plain.failed(), supervised.failed());
        assert_eq!(supervised.chip_stats().tiles_retried, 0);
        assert_eq!(supervised.chip_stats().tiles_salvaged, 0);
        assert_eq!(supervised.resumed_tiles(), 0);
        assert_eq!(supervised.journal_error(), None);
    }

    #[test]
    fn supervised_flow_is_jobs_inert() {
        let p =
            ChipGen { width: 64, height: 64, nets: 260, macros: 4, ..ChipGen::small(3) }.build();
        let sup = ChipSupervision { retries: 2, seed: 7, ..ChipSupervision::default() };
        let route = |jobs: usize| {
            let cfg = GlobalConfig { tile: 16, jobs, ..GlobalConfig::default() };
            route_hierarchical_supervised(&p, &cfg, &sup, None)
        };
        let one = route(1);
        let four = route(4);
        assert_eq!(one.db().checksum(), four.db().checksum());
        assert_eq!(one.failed(), four.failed());
        assert_eq!(one.stats(), four.stats());
        assert_eq!(one.chip_stats(), four.chip_stats());
    }

    #[test]
    fn injected_tile_fault_is_recovered_and_accounted() {
        use mighty::FaultPlan;
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let cfg = GlobalConfig { tile: 16, ..GlobalConfig::default() };
        let sup = ChipSupervision::default();
        let clean = route_hierarchical_supervised(&p, &cfg, &sup, None);
        // Panic tile 1's first attempt: the retry recovers it, so the
        // chip completes exactly as well as the unfaulted run — the
        // recovered tile's wiring comes from a perturbed re-attempt, so
        // only completion parity (not byte parity) is promised.
        let faulted = ChipSupervision {
            fault: Some(FaultPlan::parse("panic@tile:1").expect("valid spec")),
            ..sup.clone()
        };
        let out = route_hierarchical_supervised(&p, &cfg, &faulted, None);
        assert!(
            out.chip_stats().tiles_retried > clean.chip_stats().tiles_retried,
            "the panicked tile must be recovered by a retry: {:?} vs {:?}",
            out.chip_stats(),
            clean.chip_stats()
        );
        assert_eq!(out.chip_stats().tiles_errored, 0, "{:?}", out.chip_stats());
        let report = verify(&p, out.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
        // A fault aimed past the tile grid never fires, so the run is
        // byte-identical to the unfaulted one.
        let inert = ChipSupervision {
            fault: Some(FaultPlan::parse("panic@tile:99").expect("valid spec")),
            ..sup.clone()
        };
        let out = route_hierarchical_supervised(&p, &cfg, &inert, None);
        assert_eq!(out.db().checksum(), clean.db().checksum());
        assert_eq!(out.chip_stats(), clean.chip_stats());
    }

    #[test]
    fn persistent_tile_fault_errors_the_tile_without_poisoning_the_chip() {
        // Fail *every* attempt of tile 0 (the fault's attempt budget
        // outlasts retries and there is no fallback): no attempt yields
        // a snapshot, so the tile is errored — and the rest of the chip
        // still routes and verifies.
        use mighty::FaultPlan;
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let cfg = GlobalConfig { tile: 16, fallback: false, ..GlobalConfig::default() };
        let sup = ChipSupervision {
            retries: 1,
            fallback: false,
            seed: 0,
            fault: Some(FaultPlan::parse("fail@tile:0@99").expect("valid spec")),
        };
        let out = route_hierarchical_supervised(&p, &cfg, &sup, None);
        assert_eq!(out.chip_stats().tiles_errored, 1, "{:?}", out.chip_stats());
        assert!(out.chip_stats().tiles_routed > 0, "{:?}", out.chip_stats());
        let report = verify(&p, out.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
    }

    #[test]
    fn starved_tiles_salvage_their_best_snapshot() {
        // A starved per-tile budget leaves nets unrouted in dense
        // tiles; with retries exhausted and no fallback the supervisor
        // salvages the best partial snapshot, which still reaches the
        // database (a salvaged tile is never an empty tile).
        let starved = RouterConfig::builder()
            .max_attempts(1)
            .max_events(8)
            .build()
            .expect("starved config is valid");
        let p = SwitchboxGen { width: 12, height: 10, nets: 12, seed: 23 }.build();
        let cfg =
            GlobalConfig { tile: 8, router: starved, fallback: false, ..GlobalConfig::default() };
        let sup = ChipSupervision { retries: 1, fallback: false, seed: 0x5eed, fault: None };
        let out = route_hierarchical_supervised(&p, &cfg, &sup, None);
        assert!(out.chip_stats().tiles_salvaged > 0, "{:?}", out.chip_stats());
        assert!(out.db().checksum() != 0, "salvaged snapshots must carry wiring");
        let report = verify(&p, out.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
    }

    #[test]
    fn journal_resume_replays_tiles_byte_identically() {
        let dir = std::env::temp_dir().join("vroute-chip-journal-detail");
        let _ = std::fs::remove_dir_all(&dir);
        let p =
            ChipGen { width: 64, height: 64, nets: 260, macros: 4, ..ChipGen::small(3) }.build();
        let cfg = GlobalConfig { tile: 16, ..GlobalConfig::default() };
        let sup = ChipSupervision::default();

        // Uninterrupted journaled run.
        let journal = ChipJournal::create(&dir).expect("journal dir");
        let first = route_hierarchical_supervised(&p, &cfg, &sup, Some(&journal));
        assert_eq!(first.journal_error(), None);
        assert_eq!(first.resumed_tiles(), 0);
        drop(journal);

        // Simulated kill: truncate the log to its first 60% of bytes,
        // as a SIGKILL mid-run would, then resume.
        let path = dir.join(ChipJournal::FILE_NAME);
        let text = std::fs::read_to_string(&path).expect("journal written");
        let cut = text.len() * 6 / 10;
        std::fs::write(&path, &text.as_bytes()[..cut]).expect("truncate journal");

        let journal = ChipJournal::resume(&dir).expect("journal reopens");
        let resumed = route_hierarchical_supervised(&p, &cfg, &sup, Some(&journal));
        assert!(resumed.resumed_tiles() > 0, "the surviving prefix must replay");
        assert_eq!(resumed.journal_error(), None, "replayed tiles reproduce the run");
        assert_eq!(first.db().checksum(), resumed.db().checksum());
        assert_eq!(first.failed(), resumed.failed());
        assert_eq!(first.stats(), resumed.stats());
        assert_eq!(first.chip_stats(), resumed.chip_stats());

        // A third run over the now-complete journal replays everything.
        drop(journal);
        let journal = ChipJournal::resume(&dir).expect("journal reopens");
        let replayed = route_hierarchical_supervised(&p, &cfg, &sup, Some(&journal));
        assert!(replayed.resumed_tiles() > resumed.resumed_tiles());
        assert_eq!(replayed.journal_error(), None);
        assert_eq!(first.db().checksum(), replayed.db().checksum());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_only_run_matches_unsupervised_checksum() {
        // A journal without supervision must not change the routing:
        // the supervisor runs with zero retries and no fallback, so the
        // database checksum matches the plain flow exactly.
        let dir = std::env::temp_dir().join("vroute-chip-journal-plain");
        let _ = std::fs::remove_dir_all(&dir);
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let cfg = GlobalConfig { tile: 16, ..GlobalConfig::default() };
        let plain = route_hierarchical(&p, &cfg);
        let journal = ChipJournal::create(&dir).expect("journal dir");
        let journaled =
            route_hierarchical_supervised(&p, &cfg, &ChipSupervision::none(), Some(&journal));
        assert_eq!(plain.db().checksum(), journaled.db().checksum());
        assert_eq!(plain.failed(), journaled.failed());
        assert_eq!(journaled.journal_error(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_tile_records_route_live_instead_of_replaying() {
        // A crc-valid tile record whose wiring does not fit its tile
        // must not replay (nor panic): the tile routes live, and the
        // run matches the uninterrupted one.
        let dir = std::env::temp_dir().join("vroute-chip-journal-forged");
        let _ = std::fs::remove_dir_all(&dir);
        let p = SwitchboxGen { width: 32, height: 32, nets: 14, seed: 9 }.build();
        let cfg = GlobalConfig { tile: 16, ..GlobalConfig::default() };
        let sup = ChipSupervision::default();
        let journal = ChipJournal::create(&dir).expect("journal dir");
        let first = route_hierarchical_supervised(&p, &cfg, &sup, Some(&journal));
        drop(journal);

        let path = dir.join(ChipJournal::FILE_NAME);
        let text = std::fs::read_to_string(&path).expect("journal written");
        let tiles = text.lines().filter(|l| l.starts_with("{\"ev\":\"tile\"")).count();
        let routed = text.lines().find(|l| l.contains("\"routes\":[[")).expect("a routed tile");
        let (head, rest) = routed.split_at(routed.find("\"routes\":").expect("routes") + 9);
        let tail = &rest[rest.find("],\"failed\"").expect("failed") + 1..];
        let tail = &tail[..tail.rfind(",\"crc\"").expect("sealed")];
        for forged in [
            "[[0,1,1,0,9,9,0]]",                   // not contiguous
            "[[0,999999,5,0,1000000,5,0]]",        // off the grid
            "[[0,2147483646,5,0,2147483647,5,0]]", // i32::MAX
        ] {
            // Resealed after the genuine record, so it is the one that
            // matches on resume.
            let body = format!("{head}{forged}{tail}");
            let crc = RunJournal::fingerprint(&body);
            std::fs::write(&path, format!("{text}{body},\"crc\":\"{crc:016x}\"}}\n"))
                .expect("forge");
            let journal = ChipJournal::resume(&dir).expect("journal reopens");
            let resumed = route_hierarchical_supervised(&p, &cfg, &sup, Some(&journal));
            assert_eq!(resumed.journal_error(), None, "{forged}");
            assert_eq!(resumed.resumed_tiles(), tiles - 1, "{forged}: the forged tile routes live");
            assert_eq!(first.db().checksum(), resumed.db().checksum(), "{forged}");
            assert_eq!(first.failed(), resumed.failed(), "{forged}");
            assert_eq!(first.stats(), resumed.stats(), "{forged}");
            assert_eq!(first.chip_stats(), resumed.chip_stats(), "{forged}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stitched_databases_carry_no_dead_wire() {
        let p =
            ChipGen { width: 64, height: 64, nets: 260, macros: 4, ..ChipGen::small(7) }.build();
        let cfg = GlobalConfig { tile: 16, ..GlobalConfig::default() };
        let out = route_hierarchical(&p, &cfg);
        let lint = route_analyze::lint_db(&p, out.db());
        assert!(
            lint.findings().iter().all(|f| f.rule().code != "L008"),
            "dead wire after prune: {:?}",
            lint.diagnostics()
        );
    }
}
