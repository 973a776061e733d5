use std::collections::{BTreeSet, VecDeque};

use route_geom::{Layer, Point, Rect, NUM_LAYERS};
use route_maze::search::{find_path, find_path_soft, node_index, Query, SearchArena};
use route_model::{
    NetId, NopObserver, Problem, RouteDb, RouteError, RouteObserver, SlotIndex, Step, Trace,
    TraceId,
};

use crate::{NetOrder, RouterConfig, RouterStats};

/// The incremental rip-up/reroute detailed router.
///
/// See the [crate documentation](crate) for the algorithm; construct with
/// a [`RouterConfig`] and call [`MightyRouter::route`] (fresh problems)
/// or [`MightyRouter::try_route_incremental`] (partially routed areas).
#[derive(Debug, Clone, Default)]
pub struct MightyRouter {
    cfg: RouterConfig,
}

/// The result of a routing run: the final database, the nets that could
/// not be completed, and the work counters.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    db: RouteDb,
    failed: Vec<NetId>,
    stats: RouterStats,
}

// Outcomes are handed back across worker threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<RouteOutcome>();
};

impl RouteOutcome {
    /// Whether every net was fully connected.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// The routing database with all committed wiring.
    pub fn db(&self) -> &RouteDb {
        &self.db
    }

    /// Consumes the outcome, returning the database.
    pub fn into_db(self) -> RouteDb {
        self.db
    }

    /// Nets that could not be completed, ascending.
    pub fn failed(&self) -> &[NetId] {
        &self.failed
    }

    /// Work counters for the run.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }
}

enum ConnectResult {
    Connected,
    Stuck,
}

impl MightyRouter {
    /// Creates a router with the given configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        MightyRouter { cfg }
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Routes every net of `problem` from scratch.
    pub fn route(&self, problem: &Problem) -> RouteOutcome {
        self.route_observed(problem, &mut NopObserver)
    }

    /// Like [`route`](MightyRouter::route), but streams the full
    /// [`RouteObserver`] event vocabulary — scheduling, every hard and
    /// soft search (with effort counters), weak modifications, strong
    /// rip-ups with their penalty escalations, and terminal per-net
    /// outcomes. Observation never changes the result: the returned
    /// database is bit-identical to the unobserved run's.
    pub fn route_observed(
        &self,
        problem: &Problem,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome {
        self.try_route_incremental_observed(problem, RouteDb::new(problem), observer)
            .expect("a fresh database always matches its problem")
    }

    /// Routes the incomplete nets of an existing database — the
    /// "partially routed area" mode. Pre-committed wiring of other nets
    /// is respected but *may be modified* (pushed or ripped) like any
    /// other wiring; ripped nets are re-routed.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DbMismatch`] when `db` was not created for
    /// `problem` (net counts differ). Routing failures are *not* errors:
    /// unconnected nets are reported in [`RouteOutcome::failed`].
    pub fn try_route_incremental(
        &self,
        problem: &Problem,
        db: RouteDb,
    ) -> Result<RouteOutcome, RouteError> {
        self.try_route_incremental_observed(problem, db, &mut NopObserver)
    }

    /// Like [`try_route_incremental`](MightyRouter::try_route_incremental),
    /// but streams [`RouteObserver`] events (see
    /// [`route_observed`](MightyRouter::route_observed)).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DbMismatch`] when `db` was not created for
    /// `problem` (net counts differ).
    pub fn try_route_incremental_observed(
        &self,
        problem: &Problem,
        db: RouteDb,
        observer: &mut dyn RouteObserver,
    ) -> Result<RouteOutcome, RouteError> {
        let mut arena = SearchArena::new();
        self.try_route_incremental_observed_in(problem, db, &mut arena, observer)
    }

    /// Routes every net of `problem` using a caller-owned
    /// [`SearchArena`] for search scratch. This is the warm-worker entry
    /// point: a long-running service hands each request the worker's
    /// arena, so steady-state routing performs no per-request scratch
    /// allocation (the arena grows to the largest grid it has seen and
    /// is reset, not reallocated, between requests). The routed result
    /// is bit-identical to [`route`](MightyRouter::route).
    pub fn route_warm(&self, problem: &Problem, arena: &mut SearchArena) -> RouteOutcome {
        self.route_warm_observed(problem, arena, &mut NopObserver)
    }

    /// Like [`route_warm`](MightyRouter::route_warm), but streams
    /// [`RouteObserver`] events.
    pub fn route_warm_observed(
        &self,
        problem: &Problem,
        arena: &mut SearchArena,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome {
        self.try_route_incremental_observed_in(problem, RouteDb::new(problem), arena, observer)
            .expect("a fresh database always matches its problem")
    }

    /// The most general entry point: incremental routing with an
    /// external observer *and* an external search arena. All other
    /// `route*` methods funnel here. The run keeps its best state as a
    /// [`RouteDb::checkpoint`]; any checkpoint `db` held is discarded,
    /// and the delivered database holds none.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DbMismatch`] when `db` was not created for
    /// `problem` (net counts differ).
    pub fn try_route_incremental_observed_in(
        &self,
        problem: &Problem,
        db: RouteDb,
        arena: &mut SearchArena,
        observer: &mut dyn RouteObserver,
    ) -> Result<RouteOutcome, RouteError> {
        if db.net_count() != problem.nets().len() {
            return Err(RouteError::DbMismatch {
                expected: problem.nets().len(),
                found: db.net_count(),
            });
        }
        let mut run = Run::new(&self.cfg, problem, db, arena, observer);
        run.execute();
        // The outcome is the best configuration the run ever reached:
        // modification is speculative, so a late cascade of rips must not
        // degrade the delivered result below an earlier state. The best
        // state is the database's checkpoint; rewinding undoes every edit
        // made since.
        let final_connected = run.connected_count();
        let mut db = run.db;
        if run.best.is_some_and(|best| best > final_connected) {
            db.rewind();
        }
        db.release_checkpoint();
        let failed: Vec<NetId> =
            (0..db.net_count() as u32).map(NetId).filter(|&id| !db.is_net_connected(id)).collect();
        Ok(RouteOutcome { db, failed, stats: run.stats })
    }
}

impl route_model::DetailedRouter for MightyRouter {
    fn name(&self) -> &str {
        "mighty"
    }

    fn route(&self, problem: &Problem) -> route_model::RouteResult {
        let out = MightyRouter::route(self, problem);
        Ok(route_model::Routing { db: out.db, failed: out.failed })
    }

    fn route_observed(
        &self,
        problem: &Problem,
        observer: &mut dyn RouteObserver,
    ) -> route_model::RouteResult {
        let out = MightyRouter::route_observed(self, problem, observer);
        Ok(route_model::Routing { db: out.db, failed: out.failed })
    }
}

struct Run<'a> {
    cfg: &'a RouterConfig,
    db: RouteDb,
    queue: VecDeque<NetId>,
    queued: Vec<bool>,
    attempts: Vec<u32>,
    rips: Vec<u32>,
    failed: Vec<bool>,
    /// Pin slots of every net, one bit per slot indexed like
    /// [`node_index`]: never passable in interference search.
    pin_plane: Vec<u64>,
    max_events: usize,
    /// Set when the event budget runs out: modification is disabled and
    /// the queue drains with one hard-only attempt per net.
    exhausted: bool,
    /// Connected nets of the best state reached so far; that state is
    /// `db`'s checkpoint.
    best: Option<usize>,
    /// Scratch buffers shared by every search of the run; borrowed so a
    /// warm worker can amortize them across requests.
    arena: &'a mut SearchArena,
    stats: RouterStats,
    /// Event sink; a [`NopObserver`] on unobserved runs.
    obs: &'a mut dyn RouteObserver,
}

impl<'a> Run<'a> {
    fn new(
        cfg: &'a RouterConfig,
        problem: &'a Problem,
        db: RouteDb,
        arena: &'a mut SearchArena,
        obs: &'a mut dyn RouteObserver,
    ) -> Self {
        let n = problem.nets().len();
        let grid = db.grid();
        let n_nodes = grid.width() as usize * grid.height() as usize * NUM_LAYERS;
        let mut pin_plane = vec![0u64; n_nodes.div_ceil(64)];
        for pin in problem.nets().iter().flat_map(|net| &net.pins) {
            if grid.in_bounds(pin.at) {
                let bit = node_index(grid, pin.at, pin.layer);
                pin_plane[bit / 64] |= 1 << (bit % 64);
            }
        }

        let mut order: Vec<NetId> = problem.nets().iter().map(|net| net.id).collect();
        let bbox = |id: NetId| -> Rect {
            let net = problem.net(id);
            let first = net.pins[0].at;
            net.pins.iter().fold(Rect::cell(first), |acc, p| acc.union(&Rect::cell(p.at)))
        };
        let bbox_size = |id: NetId| -> u32 {
            let b = bbox(id);
            b.width() + b.height()
        };
        match cfg.order {
            NetOrder::ShortFirst => order.sort_by_cached_key(|&id| (bbox_size(id), id.0)),
            NetOrder::LongFirst => {
                order.sort_by_cached_key(|&id| (std::cmp::Reverse(bbox_size(id)), id.0))
            }
            NetOrder::PinCountDesc => {
                order.sort_by_key(|&id| (std::cmp::Reverse(problem.net(id).pins.len()), id.0))
            }
            NetOrder::CongestionFirst => {
                // Contested nets (whose boxes intersect many others) go
                // first while space is still plentiful.
                let boxes: Vec<Rect> = order.iter().map(|&id| bbox(id)).collect();
                let contention = |id: NetId| -> usize {
                    let own = boxes[id.index()];
                    boxes
                        .iter()
                        .enumerate()
                        .filter(|&(i, b)| i != id.index() && own.intersects(b))
                        .count()
                };
                order.sort_by_cached_key(|&id| (std::cmp::Reverse(contention(id)), id.0));
            }
            NetOrder::Declared => {}
        }
        let queue: VecDeque<NetId> =
            order.into_iter().filter(|&id| !db.is_net_connected(id)).collect();
        let mut queued = vec![false; n];
        for &id in &queue {
            queued[id.index()] = true;
        }
        // The automatic budget scales with the work the run starts with:
        // an incremental run over a mostly routed die queues few nets.
        let max_events = if cfg.max_events == 0 { 64 * queue.len() + 256 } else { cfg.max_events };

        Run {
            cfg,
            db,
            queue,
            queued,
            attempts: vec![0; n],
            rips: vec![0; n],
            failed: vec![false; n],
            pin_plane,
            max_events,
            exhausted: false,
            best: None,
            arena,
            stats: RouterStats::default(),
            obs,
        }
    }

    /// Number of fully connected nets in the run's database; the
    /// database re-walks only the nets whose wiring changed.
    fn connected_count(&self) -> usize {
        (0..self.db.net_count() as u32).filter(|&i| self.db.is_net_connected(NetId(i))).count()
    }

    /// Checkpoints the current state if it connects more nets than any
    /// earlier state.
    fn remember_best(&mut self) {
        let count = self.connected_count();
        if self.best.is_none_or(|best| count > best) {
            self.best = Some(count);
            self.db.checkpoint();
        }
    }

    fn enqueue(&mut self, net: NetId) {
        if !self.queued[net.index()] && !self.failed[net.index()] {
            self.queued[net.index()] = true;
            self.queue.push_back(net);
        }
    }

    /// Queues a ripped victim for immediate re-routing, ahead of
    /// first-time work — re-routing while the surrounding wiring is
    /// fresh is what keeps modification local.
    fn enqueue_front(&mut self, net: NetId) {
        if !self.queued[net.index()] && !self.failed[net.index()] {
            self.queued[net.index()] = true;
            self.queue.push_front(net);
        }
    }

    /// Declares `net` failed and removes its wiring (the pins stay), so
    /// a hopeless net does not hold space hostage from the rest.
    fn fail(&mut self, net: NetId) {
        self.failed[net.index()] = true;
        self.db.rip_up_net(net);
        self.obs.on_net_failed(net);
    }

    fn execute(&mut self) {
        while let Some(net) = self.queue.pop_front() {
            self.queued[net.index()] = false;
            self.stats.events += 1;
            if self.stats.events as usize > self.max_events {
                // Safety backstop: stop modifying, drain the queue with
                // one hard-only attempt per remaining net.
                self.exhausted = true;
            }
            if self.failed[net.index()] {
                continue;
            }
            self.obs.on_net_scheduled(net);
            if self.rips[net.index()] > 0 {
                self.stats.reroutes += 1;
            }
            match self.connect_fully(net) {
                ConnectResult::Connected => {
                    self.obs.on_net_committed(net);
                    self.remember_best();
                }
                ConnectResult::Stuck => {
                    self.attempts[net.index()] += 1;
                    if self.exhausted || self.attempts[net.index()] >= self.cfg.max_attempts {
                        self.fail(net);
                    } else {
                        self.enqueue(net);
                    }
                }
            }
        }
    }

    /// Merges the pin components of `net` until one remains, using the
    /// hard search first and the modification machinery when blocked.
    fn connect_fully(&mut self, net: NetId) -> ConnectResult {
        loop {
            let mut comps = self.db.pin_components(net);
            if comps.len() <= 1 {
                return ConnectResult::Connected;
            }
            comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
            let sources = comps[0].clone();
            let targets: Vec<Step> = comps[1..].iter().flatten().copied().collect();
            let query = Query { grid: self.db.grid(), net, sources, targets, cost: self.cfg.cost };

            let (found, searched) = find_path(self.arena, &query, &mut *self.obs);
            self.stats.expanded += searched.expanded as u64;
            if let Some(found) = found {
                self.stats.hard_routes += 1;
                self.db.commit(net, found.trace).expect("hard paths commit");
                continue;
            }

            if (!self.cfg.weak && !self.cfg.strong) || self.exhausted {
                return ConnectResult::Stuck;
            }

            // Interference search: foreign pins and over-ripped nets are
            // impassable; everything else pays the escalating penalty.
            let pin_plane = &self.pin_plane;
            let grid = self.db.grid();
            let rips = &self.rips;
            let cfg = self.cfg;
            let soft_cost = move |p: Point, l: Layer, owner: NetId| -> Option<u64> {
                let bit = node_index(grid, p, l);
                if pin_plane[bit / 64] & 1 << (bit % 64) != 0
                    || rips[owner.index()] >= cfg.max_attempts
                {
                    None
                } else {
                    Some(cfg.penalty(rips[owner.index()]))
                }
            };
            let (soft, searched) = find_path_soft(self.arena, &query, &soft_cost, &mut *self.obs);
            self.stats.expanded += searched.expanded as u64;
            let Some(soft) = soft else {
                return ConnectResult::Stuck;
            };
            self.stats.soft_routes += 1;

            // Lift every victim trace covering a crossed slot. A spatial
            // index over the crossing owners' wiring replaces the per-slot
            // `traces_covering` scan; inserting owners in ascending order
            // and traces in slot order reproduces its output order, and
            // `rip_up` on an already-lifted id is a no-op, so the lifted
            // sequence is bit-identical.
            let mut lifted: Vec<(NetId, Trace)> = Vec::new();
            if !soft.crossings.is_empty() {
                let owners: BTreeSet<NetId> = soft.crossings.iter().map(|&(n, _)| n).collect();
                let grid = self.db.grid();
                let mut index: SlotIndex<(NetId, TraceId)> =
                    SlotIndex::new(grid.width(), grid.height());
                for &owner in &owners {
                    for (id, trace) in self.db.traces(owner) {
                        for &step in trace.steps() {
                            index.insert(step, (owner, id));
                        }
                    }
                }
                for &(owner, step) in &soft.crossings {
                    for &(o, id) in index.at(step.at, step.layer) {
                        if o != owner {
                            continue;
                        }
                        if let Some(trace) = self.db.rip_up(id) {
                            lifted.push((owner, trace));
                        }
                    }
                }
            }
            let victims: BTreeSet<NetId> = lifted.iter().map(|&(n, _)| n).collect();

            // Commit our path into the gap.
            let our_id = match self.db.commit(net, soft.trace.clone()) {
                Ok(id) => id,
                Err(_) => {
                    // Defensive: restore the lifted wiring and give up on
                    // this merge for now.
                    for (owner, trace) in lifted {
                        let _ = self.db.commit(owner, trace);
                    }
                    return ConnectResult::Stuck;
                }
            };

            // Weak modification: repair each victim in place.
            let mut repairs: Vec<TraceId> = Vec::new();
            let mut unrepaired: Vec<NetId> = Vec::new();
            if self.cfg.weak {
                for &victim in &victims {
                    match self.reconnect_hard(victim) {
                        Ok(mut ids) => {
                            repairs.append(&mut ids);
                            self.stats.weak_pushes += 1;
                            self.obs.on_weak_modification(net, victim);
                        }
                        Err(mut ids) => {
                            repairs.append(&mut ids);
                            unrepaired.push(victim);
                        }
                    }
                }
            } else {
                unrepaired.extend(victims.iter().copied());
            }

            if unrepaired.is_empty() {
                continue; // weak modification fully absorbed the damage
            }

            if self.cfg.strong {
                for victim in unrepaired {
                    self.rips[victim.index()] += 1;
                    self.stats.rips += 1;
                    self.obs.on_strong_ripup(net, victim, self.rips[victim.index()]);
                    self.obs
                        .on_penalty_escalation(victim, self.cfg.penalty(self.rips[victim.index()]));
                    self.enqueue_front(victim);
                }
                continue;
            }

            // Weak-only configuration and some victim is unrepairable:
            // roll the whole step back.
            self.stats.weak_rollbacks += 1;
            for id in repairs {
                self.db.rip_up(id);
            }
            self.db.rip_up(our_id);
            for (owner, trace) in lifted {
                self.db.commit(owner, trace).expect("rollback restores the previous state");
            }
            return ConnectResult::Stuck;
        }
    }

    /// Re-merges the pin components of `victim` with the hard search
    /// only. On failure the committed partial repairs are returned for
    /// potential rollback; the victim stays partially routed.
    fn reconnect_hard(&mut self, victim: NetId) -> Result<Vec<TraceId>, Vec<TraceId>> {
        let mut committed = Vec::new();
        loop {
            let mut comps = self.db.pin_components(victim);
            if comps.len() <= 1 {
                return Ok(committed);
            }
            comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
            let sources = comps[0].clone();
            let targets: Vec<Step> = comps[1..].iter().flatten().copied().collect();
            let query =
                Query { grid: self.db.grid(), net: victim, sources, targets, cost: self.cfg.cost };
            let (found, searched) = find_path(self.arena, &query, &mut *self.obs);
            self.stats.expanded += searched.expanded as u64;
            match found {
                Some(found) => {
                    committed.push(self.db.commit(victim, found.trace).expect("hard paths commit"));
                }
                None => return Err(committed),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_model::{PinSide, ProblemBuilder};
    use route_verify::verify;

    fn default_router() -> MightyRouter {
        MightyRouter::new(RouterConfig::default())
    }

    #[test]
    fn routes_crossing_nets() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("v").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        assert!(out.is_complete());
        assert!(verify(&p, out.db()).is_clean());
    }

    #[test]
    fn routes_dense_parallel_nets() {
        let mut b = ProblemBuilder::switchbox(10, 8);
        for i in 0..8 {
            b.net(format!("h{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, i);
        }
        for i in 0..10 {
            b.net(format!("v{i}")).pin_side(PinSide::Bottom, i).pin_side(PinSide::Top, i);
        }
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        assert!(out.is_complete(), "failed: {:?}", out.failed());
        assert!(verify(&p, out.db()).is_clean());
    }

    /// Builds the "enclosed pin" scenario: net `a`'s debris wiring walls
    /// net `b`'s bottom pin in on both layers. Only a router that can rip
    /// or push `a`'s wiring can free `b`.
    fn enclosed_pin_problem() -> (Problem, RouteDb) {
        let mut builder = ProblemBuilder::switchbox(6, 6);
        builder.net("a").pin_side(PinSide::Top, 0).pin_side(PinSide::Top, 5);
        builder.net("b").pin_side(PinSide::Bottom, 2).pin_side(PinSide::Top, 2);
        let problem = builder.build().unwrap();
        let a = problem.nets()[0].id;
        let mut db = RouteDb::new(&problem);
        // Debris ring on M2 around (2,0): blocks west, north, east exits.
        let ring = Trace::from_steps(vec![
            Step::new(Point::new(1, 0), Layer::M2),
            Step::new(Point::new(1, 1), Layer::M2),
            Step::new(Point::new(2, 1), Layer::M2),
            Step::new(Point::new(3, 1), Layer::M2),
            Step::new(Point::new(3, 0), Layer::M2),
        ])
        .unwrap();
        db.commit(a, ring).unwrap();
        // And the via escape hatch on M1.
        let lid = Trace::from_steps(vec![Step::new(Point::new(2, 0), Layer::M1)]).unwrap();
        db.commit(a, lid).unwrap();
        (problem, db)
    }

    #[test]
    fn no_modification_cannot_free_enclosed_pin() {
        let (problem, db) = enclosed_pin_problem();
        let router = MightyRouter::new(RouterConfig::no_modification());
        let out = router.try_route_incremental(&problem, db).unwrap();
        let b = problem.nets()[1].id;
        assert!(out.failed().contains(&b), "b must be stuck without modification");
    }

    #[test]
    fn rip_up_frees_enclosed_pin() {
        let (problem, db) = enclosed_pin_problem();
        let out = default_router().try_route_incremental(&problem, db).unwrap();
        assert!(out.is_complete(), "failed: {:?} ({})", out.failed(), out.stats());
        assert!(verify(&problem, out.db()).is_clean());
        assert!(out.stats().modifications() > 0, "must have modified: {}", out.stats());
    }

    #[test]
    fn strong_only_also_frees_enclosed_pin() {
        let (problem, db) = enclosed_pin_problem();
        let cfg = RouterConfig { weak: false, ..RouterConfig::default() };
        let out = MightyRouter::new(cfg).try_route_incremental(&problem, db).unwrap();
        assert!(out.is_complete(), "failed: {:?}", out.failed());
        assert!(verify(&problem, out.db()).is_clean());
        assert!(out.stats().rips > 0);
    }

    #[test]
    fn weak_only_frees_enclosed_pin_or_rolls_back_legally() {
        let (problem, db) = enclosed_pin_problem();
        let cfg = RouterConfig { strong: false, ..RouterConfig::default() };
        let out = MightyRouter::new(cfg).try_route_incremental(&problem, db).unwrap();
        // Weak modification suffices here (the debris is not pin-connected,
        // so "repair" is trivial), but either way the result must be legal.
        let report = verify(&problem, out.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "illegal result: {report}");
    }

    #[test]
    fn truly_unroutable_single_layer_crossing_fails_finitely() {
        // Both layers collapse to one by blocking M2 entirely: two
        // crossing nets are then impossible; the router must terminate
        // and report failure rather than live-lock.
        let mut b = ProblemBuilder::switchbox(5, 5);
        for y in 0..5 {
            for x in 0..5 {
                b.obstacle_on(Point::new(x, y), Layer::M2);
            }
        }
        b.net("h").pin_at(Point::new(0, 2), Layer::M1).pin_at(Point::new(4, 2), Layer::M1);
        b.net("v").pin_at(Point::new(2, 0), Layer::M1).pin_at(Point::new(2, 4), Layer::M1);
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        assert!(!out.is_complete());
        assert_eq!(out.failed().len(), 1, "one of the two nets completes");
        let report = verify(&p, out.db());
        assert!(report.is_legal_but_incomplete(), "{report}");
    }

    #[test]
    fn multi_pin_nets_route() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("t")
            .pin_side(PinSide::Left, 4)
            .pin_side(PinSide::Right, 4)
            .pin_side(PinSide::Top, 4)
            .pin_side(PinSide::Bottom, 4);
        b.net("u").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 6);
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        assert!(out.is_complete());
        assert!(verify(&p, out.db()).is_clean());
    }

    #[test]
    fn single_pin_net_is_trivial() {
        let mut b = ProblemBuilder::switchbox(4, 4);
        b.net("solo").pin_at(Point::new(1, 1), Layer::M1);
        b.net("pair").pin_side(PinSide::Left, 0).pin_side(PinSide::Right, 0);
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        assert!(out.is_complete());
    }

    #[test]
    fn outcome_accessors() {
        let mut b = ProblemBuilder::switchbox(4, 4);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        assert!(out.failed().is_empty());
        assert!(out.stats().hard_routes >= 1);
        let db = out.into_db();
        assert_eq!(db.net_count(), 1);
    }

    #[test]
    fn mismatched_db_is_an_error() {
        let mut b1 = ProblemBuilder::switchbox(4, 4);
        b1.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let p1 = b1.build().unwrap();
        let mut b2 = ProblemBuilder::switchbox(4, 4);
        b2.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b2.net("b").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
        let p2 = b2.build().unwrap();
        let db2 = RouteDb::new(&p2);
        let result = default_router().try_route_incremental(&p1, db2);
        assert!(
            matches!(result, Err(RouteError::DbMismatch { expected: 1, found: 2 })),
            "expected DbMismatch {{ expected: 1, found: 2 }}, got {result:?}"
        );
    }

    #[test]
    fn trait_route_matches_inherent_route() {
        let mut b = ProblemBuilder::switchbox(9, 9);
        b.net("h").pin_side(PinSide::Left, 4).pin_side(PinSide::Right, 4);
        b.net("v").pin_side(PinSide::Bottom, 4).pin_side(PinSide::Top, 4);
        let p = b.build().unwrap();
        let router = default_router();
        assert_eq!(route_model::DetailedRouter::name(&router), "mighty");
        let inherent = router.route(&p);
        let routing = route_model::DetailedRouter::route(&router, &p).unwrap();
        assert_eq!(routing.failed, inherent.failed().to_vec());
        assert_eq!(routing.db.checksum(), inherent.db().checksum());
    }

    #[test]
    fn tiny_event_budget_degrades_gracefully() {
        // With an absurdly small event budget the router must still
        // terminate and leave a legal (possibly incomplete) database.
        let mut b = ProblemBuilder::switchbox(10, 10);
        for i in 0..8 {
            b.net(format!("n{i}")).pin_side(PinSide::Left, i).pin_side(PinSide::Right, 9 - i);
        }
        let p = b.build().unwrap();
        let cfg = RouterConfig { max_events: 3, ..RouterConfig::default() };
        let out = MightyRouter::new(cfg).route(&p);
        let report = verify(&p, out.db());
        assert!(
            report.is_clean() || report.is_legal_but_incomplete(),
            "exhausted run left illegal state: {report}"
        );
        assert!(out.stats().events >= 3);
    }

    #[test]
    fn failed_nets_release_their_wiring() {
        // An unroutable net must not hold space hostage: its partial
        // wiring is ripped when it is declared failed.
        let mut b = ProblemBuilder::switchbox(7, 5);
        for y in 0..5 {
            b.obstacle(Point::new(5, y)); // wall isolating the right edge
        }
        b.net("doomed").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
        b.net("fine").pin_side(PinSide::Left, 0).pin_side(PinSide::Bottom, 3);
        let p = b.build().unwrap();
        let out = default_router().route(&p);
        let doomed = p.net_by_name("doomed").unwrap().id;
        assert!(out.failed().contains(&doomed));
        // Only the pins remain for the failed net.
        assert_eq!(out.db().net_slots(doomed).len(), 2);
        assert_eq!(out.db().traces(doomed).count(), 0);
    }

    #[test]
    fn warm_arena_reuse_is_bit_identical() {
        // One arena serving many requests of different grid sizes must
        // not change any result: warm runs are bit-identical to cold
        // runs, and a second warm pass over the same instance is
        // bit-identical to the first (stale scratch never leaks).
        let router = default_router();
        let mut arena = SearchArena::new();
        for (w, h) in [(6u32, 6u32), (11, 9), (5, 8)] {
            let mut b = ProblemBuilder::switchbox(w, h);
            b.net("h").pin_side(PinSide::Left, h / 2).pin_side(PinSide::Right, h / 2);
            b.net("v").pin_side(PinSide::Bottom, w / 2).pin_side(PinSide::Top, w / 2);
            let p = b.build().unwrap();
            let cold = router.route(&p);
            let warm1 = router.route_warm(&p, &mut arena);
            let warm2 = router.route_warm(&p, &mut arena);
            assert_eq!(cold.db().checksum(), warm1.db().checksum(), "{w}x{h} cold vs warm");
            assert_eq!(warm1.db().checksum(), warm2.db().checksum(), "{w}x{h} warm vs warm");
            assert_eq!(cold.failed(), warm1.failed());
        }
    }

    /// Channels on which the run ends below its best state, so the
    /// router delivers the best state by rewinding to its checkpoint.
    /// Checksums and failed sets are the ones the clone-based best-state
    /// snapshot delivered.
    #[test]
    fn rewound_best_state_matches_the_pinned_snapshot() {
        use route_benchdata::gen::ChannelGen;
        for (seed, slack, checksum, failed) in
            [(112, 0, 0xaf11_de23_546c_70dc, NetId(3)), (238, 1, 0x26aa_7940_738e_56de, NetId(5))]
        {
            let spec =
                ChannelGen { width: 20, nets: 9, extra_pin_pct: 40, span_window: 8, seed }.build();
            let p = spec.to_problem(spec.density() as usize + slack);
            let out = default_router().route(&p);
            assert_eq!(out.db().checksum(), checksum, "seed {seed}: checksum");
            assert_eq!(out.failed(), [failed], "seed {seed}: failed set");
            assert_eq!(out.db().edits_since_checkpoint(), None, "seed {seed}: still recording");
            let report = verify(&p, out.db());
            assert!(report.is_legal_but_incomplete(), "seed {seed}: {report}");
        }
    }

    /// Routes `p`, whose net `a` is walled in by foreign pins on every
    /// layer, and checks that interference search never crosses a pin:
    /// `a` fails, the database stays legal and every soft search comes
    /// back empty.
    fn assert_pins_wall_in(p: &Problem, a: NetId) {
        let mut log = route_model::EventLog::new();
        let out = default_router().route_observed(p, &mut log);
        assert_eq!(out.failed(), [a]);
        let report = verify(p, out.db());
        assert!(report.is_legal_but_incomplete(), "{report}");
        assert_eq!(out.stats().soft_routes, 0, "a soft path crossed a pin: {}", out.stats());
        let soft: Vec<bool> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                route_model::RouteEvent::SearchDone {
                    kind: route_model::SearchKind::Soft,
                    probe,
                    ..
                } => Some(probe.found),
                _ => None,
            })
            .collect();
        assert!(!soft.is_empty(), "the walled net must reach interference search");
        assert!(soft.iter().all(|&found| !found), "a soft search crossed a pin");
    }

    #[test]
    fn foreign_pins_stay_walls_in_soft_search() {
        let layers = [Layer::M1, Layer::M2, Layer::M3];
        // A full column of pin stacks, M1 to M3, edge rows included.
        let mut b = ProblemBuilder::switchbox(7, 5);
        b.layers(3);
        b.net("a").pin_at(Point::new(0, 2), Layer::M1).pin_at(Point::new(6, 2), Layer::M1);
        for y in 0..5 {
            let mut wall = b.net(format!("w{y}"));
            for l in layers {
                wall.pin_at(Point::new(3, y), l);
            }
        }
        let p = b.build().unwrap();
        assert_pins_wall_in(&p, p.nets()[0].id);

        // A pin in the last cell of the grid, fenced by the pin stacks
        // of its two edge neighbours: the plane's final bits.
        let mut b = ProblemBuilder::switchbox(6, 6);
        b.layers(3);
        b.net("a").pin_at(Point::new(0, 0), Layer::M1).pin_at(Point::new(5, 5), Layer::M1);
        let mut fence = b.net("c");
        for at in [Point::new(4, 5), Point::new(5, 4)] {
            for l in layers {
                fence.pin_at(at, l);
            }
        }
        let p = b.build().unwrap();
        assert_pins_wall_in(&p, p.nets()[0].id);
    }

    #[test]
    fn order_configurations_all_route() {
        for order in [
            NetOrder::ShortFirst,
            NetOrder::LongFirst,
            NetOrder::PinCountDesc,
            NetOrder::CongestionFirst,
            NetOrder::Declared,
        ] {
            let mut b = ProblemBuilder::switchbox(8, 8);
            b.net("h").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 3);
            b.net("v").pin_side(PinSide::Bottom, 5).pin_side(PinSide::Top, 5);
            let p = b.build().unwrap();
            let cfg = RouterConfig { order, ..RouterConfig::default() };
            let out = MightyRouter::new(cfg).route(&p);
            assert!(out.is_complete(), "order {order:?} failed");
        }
    }
}
