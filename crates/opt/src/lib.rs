//! Post-routing optimization passes.
//!
//! A completed routing is rarely minimal: rip-up and reroute leaves
//! detours behind (a pushed net keeps its detour even after the
//! pressure that caused it is gone), and sequential routing locks in
//! whatever order-dependent paths it found first. This crate improves a
//! finished [`RouteDb`] by **selective
//! re-routing**: each net in turn is lifted and re-routed through the
//! now-final wiring of all other nets, and the new path is kept only if
//! it improves the weighted objective. The pass repeats until a
//! fixpoint (or the pass budget) is reached.
//!
//! Two convenience entry points share the machinery:
//!
//! * [`cleanup`] — minimise wirelength with the standard via weight;
//! * [`minimize_vias`] — weight vias heavily, trading wirelength for
//!   via count (the classic via-minimisation post-pass).
//!
//! The pass never makes things worse: a candidate that fails to route
//! or fails to improve is rolled back exactly.
//!
//! # Examples
//!
//! ```
//! use route_benchdata::gen::SwitchboxGen;
//! use mighty::{MightyRouter, RouterConfig};
//! use route_opt::{cleanup, OptimizeConfig};
//! use route_verify::verify;
//!
//! let problem = SwitchboxGen { width: 12, height: 10, nets: 8, seed: 3 }.build();
//! let outcome = MightyRouter::new(RouterConfig::default()).route(&problem);
//! let mut db = outcome.into_db();
//!
//! let before = db.stats();
//! let stats = cleanup(&problem, &mut db, &OptimizeConfig::default());
//! assert!(db.stats().wirelength <= before.wirelength);
//! assert!(stats.passes >= 1);
//! assert!(verify(&problem, &db).is_clean());
//! ```

#![warn(missing_docs)]

use route_maze::sequential::connect_net;
use route_maze::{CostModel, SearchArena};
#[cfg(test)]
use route_model::Step;
use route_model::{NetId, NopObserver, Problem, RouteDb, RouteStats, Trace};

/// Configuration of the re-routing passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeConfig {
    /// Path-search cost weights used for the replacement routes.
    pub cost: CostModel,
    /// Weight of one via against one wire cell in the accept/reject
    /// objective.
    pub via_weight: u64,
    /// Maximum number of full passes over the nets.
    pub max_passes: u32,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig { cost: CostModel::default(), via_weight: 3, max_passes: 4 }
    }
}

impl OptimizeConfig {
    /// A configuration that minimises vias first and wirelength second.
    pub fn via_focused() -> Self {
        OptimizeConfig {
            cost: CostModel { via: 16, ..CostModel::default() },
            via_weight: 16,
            max_passes: 4,
        }
    }
}

/// Outcome of an optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Database statistics before the first pass.
    pub before: RouteStats,
    /// Database statistics after the last pass.
    pub after: RouteStats,
    /// Number of accepted (improving) net re-routes across all passes.
    pub improved: usize,
    /// Passes executed (at least 1).
    pub passes: u32,
}

impl PassStats {
    /// Weighted objective saved by the run.
    pub fn saved(&self, via_weight: u64) -> u64 {
        self.before.weighted_cost(via_weight).saturating_sub(self.after.weighted_cost(via_weight))
    }
}

/// Weighted cost of one net's current wiring.
fn net_cost(db: &RouteDb, net: NetId, via_weight: u64) -> u64 {
    let wire = db.slot_count(net).saturating_sub(db.pins(net).len()) as u64;
    wire + via_weight * db.via_count(net) as u64
}

/// Re-routes one net from scratch through the current database with the
/// hard search. On failure nothing stays committed (partial commits are
/// rolled back here).
fn reroute_net(
    arena: &mut SearchArena,
    db: &mut RouteDb,
    net: NetId,
    cost: CostModel,
) -> Option<()> {
    match connect_net(arena, db, net, cost, Vec::new(), &mut NopObserver) {
        Ok(_) => Some(()),
        Err((ids, _)) => {
            for id in ids {
                db.rip_up(id);
            }
            None
        }
    }
}

/// Runs improving re-route passes over the nets of `problem` until no
/// net improves or the pass budget is exhausted.
///
/// Nets that are incomplete in `db` are re-routed opportunistically: if
/// the fresh route cannot connect them either, their previous partial
/// wiring is restored unchanged. The database is never left worse than
/// it was — every rejected candidate is rolled back exactly.
pub fn optimize(problem: &Problem, db: &mut RouteDb, cfg: &OptimizeConfig) -> PassStats {
    let before = db.stats();
    let mut improved_total = 0usize;
    let mut passes = 0u32;
    let mut arena = SearchArena::new();
    while passes < cfg.max_passes {
        passes += 1;
        let mut improved_this_pass = 0usize;

        // Most expensive nets first: they have the most slack to give.
        let mut order: Vec<NetId> = problem.nets().iter().map(|n| n.id).collect();
        order.sort_by_key(|&id| std::cmp::Reverse(net_cost(db, id, cfg.via_weight)));

        for net in order {
            let old_cost = net_cost(db, net, cfg.via_weight);
            if old_cost == 0 {
                continue; // nothing to improve (or pin-only net)
            }
            let was_complete = db.is_net_connected(net);
            let old_traces = db.rip_up_net(net);
            if old_traces.is_empty() {
                continue;
            }
            let restore = |db: &mut RouteDb, traces: Vec<Trace>| {
                for t in traces {
                    db.commit(net, t).expect("restoring previous wiring succeeds");
                }
            };
            match reroute_net(&mut arena, db, net, cfg.cost) {
                Some(()) => {
                    let new_cost = net_cost(db, net, cfg.via_weight);
                    // A re-route that completes a previously broken net
                    // is always an improvement; otherwise it must win on
                    // the weighted objective.
                    if !was_complete || new_cost < old_cost {
                        improved_this_pass += 1;
                    } else {
                        db.rip_up_net(net);
                        restore(db, old_traces);
                    }
                }
                None => restore(db, old_traces),
            }
        }
        improved_total += improved_this_pass;
        if improved_this_pass == 0 {
            break;
        }
    }
    PassStats { before, after: db.stats(), improved: improved_total, passes }
}

/// Wirelength-focused cleanup with the given configuration's weights.
///
/// Equivalent to [`optimize`]; provided as the conventional entry point.
pub fn cleanup(problem: &Problem, db: &mut RouteDb, cfg: &OptimizeConfig) -> PassStats {
    optimize(problem, db, cfg)
}

/// Via-minimisation pass: re-routes with heavily weighted vias.
pub fn minimize_vias(problem: &Problem, db: &mut RouteDb) -> PassStats {
    optimize(problem, db, &OptimizeConfig::via_focused())
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_geom::{Layer, Point};
    use route_model::{PinSide, ProblemBuilder};
    use route_verify::verify;

    /// A net routed with a gratuitous detour that cleanup must remove.
    fn detoured_db() -> (Problem, RouteDb) {
        let mut b = ProblemBuilder::switchbox(8, 6);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let problem = b.build().expect("valid");
        let net = problem.nets()[0].id;
        let mut db = RouteDb::new(&problem);
        // Staircase detour: along row 1 to x=3, up to row 4, across, back down.
        let mut steps = Vec::new();
        for x in 0..=3 {
            steps.push(Step::new(Point::new(x, 1), Layer::M1));
        }
        steps.push(Step::new(Point::new(3, 1), Layer::M2));
        for y in 2..=4 {
            steps.push(Step::new(Point::new(3, y), Layer::M2));
        }
        steps.push(Step::new(Point::new(3, 4), Layer::M1));
        steps.push(Step::new(Point::new(4, 4), Layer::M1));
        steps.push(Step::new(Point::new(4, 4), Layer::M2));
        for y in (1..=3).rev() {
            steps.push(Step::new(Point::new(4, y), Layer::M2));
        }
        steps.push(Step::new(Point::new(4, 1), Layer::M1));
        for x in 5..8 {
            steps.push(Step::new(Point::new(x, 1), Layer::M1));
        }
        db.commit(net, Trace::from_steps(steps).expect("contiguous")).expect("commits");
        (problem, db)
    }

    #[test]
    fn cleanup_straightens_detours() {
        let (problem, mut db) = detoured_db();
        let before = db.stats();
        let stats = cleanup(&problem, &mut db, &OptimizeConfig::default());
        let after = db.stats();
        assert!(after.wirelength < before.wirelength, "{before:?} -> {after:?}");
        assert_eq!(after.vias, 0, "straight path needs no vias");
        assert_eq!(stats.improved, 1);
        assert!(stats.saved(3) > 0);
        assert!(verify(&problem, &db).is_clean());
    }

    #[test]
    fn optimize_is_idempotent_at_fixpoint() {
        let (problem, mut db) = detoured_db();
        cleanup(&problem, &mut db, &OptimizeConfig::default());
        let settled = db.stats();
        let stats = cleanup(&problem, &mut db, &OptimizeConfig::default());
        assert_eq!(db.stats(), settled);
        assert_eq!(stats.improved, 0);
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn incomplete_nets_left_alone() {
        let mut b = ProblemBuilder::switchbox(6, 6);
        b.net("open").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        let problem = b.build().expect("valid");
        let mut db = RouteDb::new(&problem);
        // No wiring at all: nothing to do, nothing to break.
        let stats = cleanup(&problem, &mut db, &OptimizeConfig::default());
        assert_eq!(stats.improved, 0);
        assert_eq!(db.stats().wirelength, 0);
    }

    #[test]
    fn via_minimisation_trades_wire_for_vias() {
        // A net whose shortest path uses vias but which has a via-free
        // (longer, wrong-way) alternative.
        let mut b = ProblemBuilder::switchbox(4, 8);
        b.net("v").pin_at(Point::new(1, 0), Layer::M1).pin_at(Point::new(1, 7), Layer::M1);
        let problem = b.build().expect("valid");
        let net = problem.nets()[0].id;
        let mut db = RouteDb::new(&problem);
        // Default routing vias up to M2 for the vertical run.
        let mut steps = vec![Step::new(Point::new(1, 0), Layer::M1)];
        steps.push(Step::new(Point::new(1, 0), Layer::M2));
        steps.extend((1..=7).map(|y| Step::new(Point::new(1, y), Layer::M2)));
        steps.push(Step::new(Point::new(1, 7), Layer::M1));
        db.commit(net, Trace::from_steps(steps).expect("contiguous")).expect("commits");
        assert_eq!(db.stats().vias, 2);

        let stats = minimize_vias(&problem, &mut db);
        assert_eq!(db.stats().vias, 0, "{stats:?}");
        assert!(verify(&problem, &db).is_clean());
    }

    #[test]
    fn never_worse_on_routed_instances() {
        use mighty::{MightyRouter, RouterConfig};
        use route_benchdata::gen::SwitchboxGen;
        for seed in 0..6 {
            let problem = SwitchboxGen { width: 12, height: 12, nets: 12, seed }.build();
            let out = MightyRouter::new(RouterConfig::default()).route(&problem);
            let mut db = out.into_db();
            let before = db.stats().weighted_cost(3);
            cleanup(&problem, &mut db, &OptimizeConfig::default());
            let after = db.stats().weighted_cost(3);
            assert!(after <= before, "seed {seed}: {before} -> {after}");
            let report = verify(&problem, &db);
            assert!(report.is_clean() || report.is_legal_but_incomplete(), "seed {seed}: {report}");
        }
    }
}
