//! Sequential maze router: the classic no-modification baseline.
//!
//! Nets are routed one at a time with the hard search of
//! [`search::find_path`](crate::search::find_path); wiring committed for
//! earlier nets is never revisited. On congested problems this ordering
//! greed is exactly what fails — later nets find themselves walled in —
//! which is the behaviour rip-up/reroute routing was invented to fix.

use route_geom::Rect;
use route_model::{NetId, NopObserver, Problem, RouteDb, RouteObserver, Step, TraceId};

use crate::search::{find_path_observed, Query, SearchArena, SearchStats};
use crate::CostModel;

/// Result of a sequential routing run.
#[derive(Debug, Clone)]
pub struct SequentialOutcome {
    /// The database with all successfully committed wiring.
    pub db: RouteDb,
    /// Nets with at least one unroutable connection, in failure order.
    pub failed: Vec<NetId>,
    /// Accumulated search effort.
    pub stats: SearchStats,
}

impl SequentialOutcome {
    /// Whether every net was fully routed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Routes every net of `problem` in ascending bounding-box size order
/// (small nets first — the conventional sequential heuristic).
pub fn route_all(problem: &Problem, cost: CostModel) -> SequentialOutcome {
    route_all_observed(problem, cost, &mut NopObserver)
}

/// Like [`route_all`], but reusing the caller's [`SearchArena`] — the
/// warm entry point for benches and services that want to pick a
/// frontier and keep search scratch allocated across problems. The
/// result is bit-identical to [`route_all`].
pub fn route_all_in(
    problem: &Problem,
    cost: CostModel,
    arena: &mut SearchArena,
) -> SequentialOutcome {
    route_in_order_observed_in(problem, cost, &sorted_order(problem), &mut NopObserver, arena)
}

/// Like [`route_all`], but streams [`RouteObserver`] events — one
/// `on_net_scheduled` per net in routing order, `on_search_done` per
/// pin-attachment search, and a terminal `on_net_committed` /
/// `on_net_failed`. Observation never changes the result.
pub fn route_all_observed(
    problem: &Problem,
    cost: CostModel,
    obs: &mut dyn RouteObserver,
) -> SequentialOutcome {
    route_in_order_observed(problem, cost, &sorted_order(problem), obs)
}

/// The sequential heuristic order: ascending bounding-box half-perimeter,
/// net id breaking ties.
fn sorted_order(problem: &Problem) -> Vec<NetId> {
    let mut order: Vec<NetId> = problem.nets().iter().map(|n| n.id).collect();
    order.sort_by_key(|&id| {
        let net = problem.net(id);
        let first = net.pins[0].at;
        let bbox = net.pins.iter().fold(Rect::cell(first), |acc, p| acc.union(&Rect::cell(p.at)));
        (bbox.width() + bbox.height(), id.0)
    });
    order
}

/// Routes nets in the caller-specified order.
pub fn route_in_order(problem: &Problem, cost: CostModel, order: &[NetId]) -> SequentialOutcome {
    route_in_order_observed(problem, cost, order, &mut NopObserver)
}

/// Like [`route_in_order`], but streams [`RouteObserver`] events.
pub fn route_in_order_observed(
    problem: &Problem,
    cost: CostModel,
    order: &[NetId],
    obs: &mut dyn RouteObserver,
) -> SequentialOutcome {
    // One arena for the whole run: every net's searches reuse it.
    route_in_order_observed_in(problem, cost, order, obs, &mut SearchArena::new())
}

/// Like [`route_in_order_observed`], but reusing the caller's
/// [`SearchArena`].
pub fn route_in_order_observed_in(
    problem: &Problem,
    cost: CostModel,
    order: &[NetId],
    obs: &mut dyn RouteObserver,
    arena: &mut SearchArena,
) -> SequentialOutcome {
    let mut db = RouteDb::new(problem);
    let mut failed = Vec::new();
    let mut stats = SearchStats::default();
    for &net in order {
        obs.on_net_scheduled(net);
        match connect_net_observed_in(arena, &mut db, net, cost, obs) {
            Ok(s) => {
                stats.expanded += s.expanded;
                stats.relaxed += s.relaxed;
                obs.on_net_committed(net);
            }
            Err(s) => {
                stats.expanded += s.expanded;
                stats.relaxed += s.relaxed;
                failed.push(net);
                obs.on_net_failed(net);
            }
        }
    }
    SequentialOutcome { db, failed, stats }
}

/// Incrementally connects all pins of `net` inside `db` using hard search.
///
/// Pins are attached one at a time to the growing connected component
/// (the first pin seeds it). Wiring committed by earlier calls — for this
/// or other nets — is respected.
///
/// # Errors
///
/// Returns the accumulated search stats as the error payload when some
/// pin cannot be attached; wiring committed for earlier pins of the net
/// is left in place.
pub fn connect_net(
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
) -> Result<SearchStats, SearchStats> {
    connect_net_in(&mut SearchArena::new(), db, net, cost)
}

/// Like [`connect_net`], but reusing the caller's [`SearchArena`].
pub fn connect_net_in(
    arena: &mut SearchArena,
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
) -> Result<SearchStats, SearchStats> {
    connect_net_observed_in(arena, db, net, cost, &mut NopObserver)
}

/// Like [`connect_net_in`], but reports each pin-attachment search to
/// `obs` via [`RouteObserver::on_search_done`].
pub fn connect_net_observed_in(
    arena: &mut SearchArena,
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
    obs: &mut dyn RouteObserver,
) -> Result<SearchStats, SearchStats> {
    match connect_net_seeded_obs(arena, db, net, cost, Vec::new(), obs) {
        Ok((_, stats)) => Ok(stats),
        Err((_, stats)) => Err(stats),
    }
}

/// Like [`connect_net`], but the connected component starts from `seed`
/// slots (e.g. a pre-committed trunk) in addition to the first pin, and
/// the committed trace ids are returned so callers can roll back.
///
/// This is the shared pin-attachment engine: the sequential baseline,
/// the YACR-style patch-up and the optimization passes all build on it.
///
/// # Errors
///
/// Returns the trace ids committed so far (for rollback) plus the
/// accumulated stats when some pin cannot be attached.
#[allow(clippy::type_complexity)]
pub fn connect_net_seeded(
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
    seed: Vec<Step>,
) -> Result<(Vec<TraceId>, SearchStats), (Vec<TraceId>, SearchStats)> {
    connect_net_seeded_in(&mut SearchArena::new(), db, net, cost, seed)
}

/// Like [`connect_net_seeded`], but reusing the caller's [`SearchArena`].
///
/// # Errors
///
/// Returns the trace ids committed so far (for rollback) plus the
/// accumulated stats when some pin cannot be attached.
#[allow(clippy::type_complexity)]
pub fn connect_net_seeded_in(
    arena: &mut SearchArena,
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
    seed: Vec<Step>,
) -> Result<(Vec<TraceId>, SearchStats), (Vec<TraceId>, SearchStats)> {
    connect_net_seeded_obs(arena, db, net, cost, seed, &mut NopObserver)
}

#[allow(clippy::type_complexity)]
fn connect_net_seeded_obs(
    arena: &mut SearchArena,
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
    seed: Vec<Step>,
    obs: &mut dyn RouteObserver,
) -> Result<(Vec<TraceId>, SearchStats), (Vec<TraceId>, SearchStats)> {
    let mut stats = SearchStats::default();
    let mut committed: Vec<TraceId> = Vec::new();
    let pins: Vec<Step> = db.pins(net).iter().map(|p| Step::new(p.at, p.layer)).collect();
    let mut connected = seed;
    let attach: Vec<Step> = if connected.is_empty() {
        let Some((&first, rest)) = pins.split_first() else {
            return Ok((committed, stats));
        };
        connected.push(first);
        rest.to_vec()
    } else {
        pins
    };
    for pin in attach {
        if connected.contains(&pin) {
            continue;
        }
        let query =
            Query { grid: db.grid(), net, sources: connected.clone(), targets: vec![pin], cost };
        let (found, searched) = find_path_observed(arena, &query, obs);
        stats.expanded += searched.expanded;
        stats.relaxed += searched.relaxed;
        match found {
            Some(found) => {
                let steps = found.trace.steps().to_vec();
                let id: TraceId =
                    db.commit(net, found.trace).expect("hard search paths are committable");
                committed.push(id);
                connected.extend(steps);
            }
            None => return Err((committed, stats)),
        }
    }
    Ok((committed, stats))
}

/// The sequential maze baseline behind the shared
/// [`DetailedRouter`](route_model::DetailedRouter) trait.
///
/// Never errors: nets that cannot be connected are reported in
/// [`Routing::failed`](route_model::Routing) and the rest are delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeeRouter {
    /// Cost model used for every connection.
    pub cost: CostModel,
}

impl route_model::DetailedRouter for LeeRouter {
    fn name(&self) -> &str {
        "lee"
    }

    fn route(&self, problem: &Problem) -> route_model::RouteResult {
        let out = route_all(problem, self.cost);
        Ok(route_model::Routing { db: out.db, failed: out.failed })
    }

    fn route_observed(
        &self,
        problem: &Problem,
        observer: &mut dyn RouteObserver,
    ) -> route_model::RouteResult {
        let out = route_all_observed(problem, self.cost, observer);
        Ok(route_model::Routing { db: out.db, failed: out.failed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_geom::Point;
    use route_model::{DetailedRouter, PinSide, ProblemBuilder};
    use route_verify::verify;

    #[test]
    fn routes_crossing_nets_on_two_layers() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("v").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        let p = b.build().unwrap();
        let out = route_all(&p, CostModel::default());
        assert!(out.is_complete());
        assert!(verify(&p, &out.db).is_clean());
    }

    #[test]
    fn routes_multi_pin_net() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("t")
            .pin_side(PinSide::Left, 4)
            .pin_side(PinSide::Right, 4)
            .pin_side(PinSide::Top, 4)
            .pin_side(PinSide::Bottom, 4);
        let p = b.build().unwrap();
        let out = route_all(&p, CostModel::default());
        assert!(out.is_complete());
        assert!(verify(&p, &out.db).is_clean());
    }

    #[test]
    fn greedy_order_can_fail_where_capacity_exists() {
        // A 3x3 box: net "long" hugs the border, then blocks "short".
        // With small-first ordering both route; force the bad order to
        // demonstrate the baseline's weakness.
        let mut b = ProblemBuilder::switchbox(3, 3);
        b.net("corner")
            .pin_at(Point::new(0, 1), route_geom::Layer::M1)
            .pin_at(Point::new(1, 0), route_geom::Layer::M1);
        b.net("cross")
            .pin_at(Point::new(0, 0), route_geom::Layer::M1)
            .pin_at(Point::new(2, 2), route_geom::Layer::M1);
        let p = b.build().unwrap();
        let out = route_all(&p, CostModel::default());
        // Not asserting failure (the maze may still find a way through
        // M2); assert legality either way.
        let report = verify(&p, &out.db);
        assert!(report.is_clean() || report.is_legal_but_incomplete());
    }

    #[test]
    fn failure_reported_when_walled_in() {
        let mut b = ProblemBuilder::switchbox(5, 5);
        // Obstacles isolate the right pin of net a completely.
        for y in 0..5 {
            b.obstacle(Point::new(3, y));
        }
        b.net("a").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
        let p = b.build().unwrap();
        let out = route_all(&p, CostModel::default());
        assert_eq!(out.failed, vec![p.nets()[0].id]);
        assert!(!out.is_complete());
    }

    #[test]
    fn stats_accumulate() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        let p = b.build().unwrap();
        let out = route_all(&p, CostModel::default());
        assert!(out.stats.expanded > 0);
    }

    #[test]
    fn lee_router_trait_matches_route_all() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("v").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        let p = b.build().unwrap();
        let router = LeeRouter::default();
        assert_eq!(router.name(), "lee");
        let routing = router.route(&p).unwrap();
        let direct = route_all(&p, CostModel::default());
        assert_eq!(routing.failed, direct.failed);
        assert_eq!(routing.db.checksum(), direct.db.checksum());
    }

    #[test]
    fn observed_run_matches_unobserved_and_logs_vocabulary() {
        use route_model::{EventLog, MetricsRecorder};
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("v").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        let p = b.build().unwrap();

        let plain = route_all(&p, CostModel::default());
        let mut log = EventLog::new();
        let observed = route_all_observed(&p, CostModel::default(), &mut log);
        assert_eq!(plain.db.checksum(), observed.db.checksum());
        assert_eq!(plain.stats, observed.stats);

        // 2 nets scheduled + committed, one search each pin attachment.
        assert_eq!(log.count_kind("net_scheduled"), 2);
        assert_eq!(log.count_kind("net_committed"), 2);
        assert_eq!(log.count_kind("net_failed"), 0);
        assert_eq!(log.count_kind("search_done"), 2);

        // The same events replay into a MetricsRecorder consistently.
        let mut metrics = MetricsRecorder::new();
        log.replay(&mut metrics);
        assert_eq!(metrics.nets_scheduled(), 2);
        assert_eq!(metrics.nets_committed(), 2);
        assert_eq!(metrics.router().expanded, plain.stats.expanded as u64);

        // A failed search counts too: a wall isolates net a's right pin,
        // and the search that proves it settles nodes before it gives up.
        let mut b = ProblemBuilder::switchbox(5, 5);
        for y in 0..5 {
            b.obstacle(Point::new(3, y));
        }
        b.net("a").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
        let p = b.build().unwrap();
        let plain = route_all(&p, CostModel::default());
        let mut log = EventLog::new();
        let observed = route_all_observed(&p, CostModel::default(), &mut log);
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(plain.failed, vec![p.nets()[0].id]);
        let mut metrics = MetricsRecorder::new();
        log.replay(&mut metrics);
        assert_eq!(metrics.nets_failed(), 1);
        assert!(plain.stats.expanded > 0, "the failed search settled nodes");
        assert_eq!(metrics.router().expanded, plain.stats.expanded as u64);
    }

    #[test]
    fn observed_run_reports_failed_search_effort() {
        use route_model::EventLog;
        let mut b = ProblemBuilder::switchbox(5, 5);
        for y in 0..5 {
            b.obstacle(Point::new(3, y));
        }
        b.net("a").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
        let p = b.build().unwrap();
        let mut log = EventLog::new();
        let out = route_all_observed(&p, CostModel::default(), &mut log);
        assert!(!out.is_complete());
        assert_eq!(log.count_kind("net_failed"), 1);
        // The failed search still reports the nodes it expanded.
        let probe = log
            .events()
            .iter()
            .find_map(|e| match e {
                route_model::RouteEvent::SearchDone { probe, .. } => Some(*probe),
                _ => None,
            })
            .unwrap();
        assert!(!probe.found);
        assert!(probe.expanded > 0);
        assert!(probe.heap_peak > 0);
    }

    #[test]
    fn respects_explicit_order() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("v").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        let p = b.build().unwrap();
        let order: Vec<NetId> = p.nets().iter().rev().map(|n| n.id).collect();
        let out = route_in_order(&p, CostModel::default(), &order);
        assert!(out.is_complete());
    }
}
