//! Drivers for the sweep experiments F1 (completion vs congestion),
//! F2 (runtime scaling) and T3 (obstacle density).

use std::time::Instant;

use mighty::{MightyRouter, RouterConfig, RouterStats};
use route_benchdata::gen::{ObstructedGen, SwitchboxGen};
use route_verify::verify;

/// A named router-configuration factory for an ablation run.
pub type Ablation = (&'static str, fn() -> RouterConfig);

/// The four ablation configurations of the modification machinery.
pub const ABLATIONS: [Ablation; 4] = [
    ("none", || RouterConfig::no_modification()),
    ("weak-only", || RouterConfig { strong: false, ..RouterConfig::default() }),
    ("strong-only", || RouterConfig { weak: false, ..RouterConfig::default() }),
    ("weak+strong", RouterConfig::default),
];

/// One measured point of the F1 sweep.
#[derive(Debug, Clone)]
pub struct CompletionPoint {
    /// Nets requested per instance.
    pub nets: u32,
    /// Mean completion rate over the seeds, in percent.
    pub completion_pct: f64,
    /// Fraction of instances fully routed, in percent.
    pub full_pct: f64,
    /// Aggregated router stats over all seeds.
    pub stats: RouterStats,
}

/// Measures the completion rate of one configuration on random `side x
/// side` switchboxes with `nets` nets, averaged over `seeds` instances.
///
/// # Panics
///
/// Panics if any routing is illegal.
pub fn completion_point(side: u32, nets: u32, seeds: u64, cfg: RouterConfig) -> CompletionPoint {
    let mut routed = 0usize;
    let mut total = 0usize;
    let mut full = 0usize;
    let mut stats = RouterStats::default();
    for seed in 0..seeds {
        let problem = SwitchboxGen { width: side, height: side, nets, seed }.build();
        let out = MightyRouter::new(cfg).route(&problem);
        let report = verify(&problem, out.db());
        assert!(
            report.is_clean() || report.is_legal_but_incomplete(),
            "illegal routing in sweep: {report}"
        );
        routed += problem.nets().len() - out.failed().len();
        total += problem.nets().len();
        full += usize::from(out.is_complete());
        let s = out.stats();
        stats.hard_routes += s.hard_routes;
        stats.soft_routes += s.soft_routes;
        stats.weak_pushes += s.weak_pushes;
        stats.weak_rollbacks += s.weak_rollbacks;
        stats.rips += s.rips;
        stats.reroutes += s.reroutes;
        stats.expanded += s.expanded;
        stats.events += s.events;
    }
    CompletionPoint {
        nets,
        completion_pct: 100.0 * routed as f64 / total.max(1) as f64,
        full_pct: 100.0 * full as f64 / seeds.max(1) as f64,
        stats,
    }
}

/// One measured point of the F2 scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Grid side length.
    pub side: u32,
    /// Net count.
    pub nets: u32,
    /// Wall-clock milliseconds for one full routing run.
    pub millis: f64,
    /// Search nodes settled.
    pub expanded: u64,
    /// Whether the instance routed completely.
    pub complete: bool,
}

/// Times one full rip-up/reroute run on a generated `side x side`
/// switchbox with `nets` nets.
///
/// # Panics
///
/// Panics if the routing is illegal.
pub fn scaling_point(side: u32, nets: u32, seed: u64) -> ScalingPoint {
    let problem = SwitchboxGen { width: side, height: side, nets, seed }.build();
    let router = MightyRouter::new(RouterConfig::default());
    let start = Instant::now();
    let out = router.route(&problem);
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let report = verify(&problem, out.db());
    assert!(
        report.is_clean() || report.is_legal_but_incomplete(),
        "illegal routing in scaling sweep: {report}"
    );
    ScalingPoint { side, nets, millis, expanded: out.stats().expanded, complete: out.is_complete() }
}

/// One measured point of the T3 obstacle sweep.
#[derive(Debug, Clone, Copy)]
pub struct ObstaclePoint {
    /// Obstacle coverage, percent of interior cells.
    pub obstacle_pct: u32,
    /// Completion rate of the sequential baseline, percent of nets.
    pub sequential_pct: f64,
    /// Completion rate of the rip-up/reroute router, percent of nets.
    pub mighty_pct: f64,
}

/// Compares the sequential baseline and the rip-up/reroute router on
/// obstructed regions, averaged over `seeds` instances.
///
/// # Panics
///
/// Panics if any routing is illegal.
pub fn obstacle_point(side: u32, nets: u32, obstacle_pct: u32, seeds: u64) -> ObstaclePoint {
    let mut seq_routed = 0usize;
    let mut mig_routed = 0usize;
    let mut total = 0usize;
    for seed in 0..seeds {
        let problem = ObstructedGen { width: side, height: side, nets, obstacle_pct, seed }.build();
        let seq = crate::switchboxes::score_sequential(&problem);
        let mig = crate::switchboxes::score_mighty(&problem, RouterConfig::default());
        seq_routed += seq.completed;
        mig_routed += mig.completed;
        total += problem.nets().len();
    }
    ObstaclePoint {
        obstacle_pct,
        sequential_pct: 100.0 * seq_routed as f64 / total.max(1) as f64,
        mighty_pct: 100.0 * mig_routed as f64 / total.max(1) as f64,
    }
}

/// One measured point of the T4 engineering-change sweep.
#[derive(Debug, Clone, Copy)]
pub struct EcoPoint {
    /// Nets pre-routed before the change order.
    pub preplaced: usize,
    /// Late nets added by the change order.
    pub added: usize,
    /// Completion of the added nets without modification, percent.
    pub frozen_pct: f64,
    /// Completion of the added nets with rip-up/reroute, percent.
    pub ripup_pct: f64,
    /// Pre-routed wiring (trace count) the repair actually touched,
    /// summed over seeds.
    pub disturbed: u64,
}

/// The engineering-change scenario: route the first `preplaced` nets
/// sequentially, then hand the database to the incremental router to
/// connect the remaining `added` nets. The control run must respect the
/// existing wiring (modification disabled); the rip-up run may move it.
///
/// # Panics
///
/// Panics if any routing is illegal.
pub fn eco_point(side: u32, preplaced: u32, added: u32, seeds: u64) -> EcoPoint {
    use route_maze::{sequential, CostModel, SearchArena};
    use route_model::{NopObserver, RouteDb};

    let total = preplaced + added;
    let mut frozen_done = 0usize;
    let mut ripup_done = 0usize;
    let mut attempted = 0usize;
    let mut disturbed = 0u64;
    for seed in 0..seeds {
        let problem = SwitchboxGen { width: side, height: side, nets: total, seed }.build();
        let mut db = RouteDb::new(&problem);
        let mut arena = SearchArena::new();
        for net in problem.nets().iter().take(preplaced as usize) {
            let _ = sequential::connect_net(
                &mut arena,
                &mut db,
                net.id,
                CostModel::default(),
                Vec::new(),
                &mut NopObserver,
            );
        }
        let pre_traces: u64 = problem
            .nets()
            .iter()
            .take(preplaced as usize)
            .map(|n| db.traces(n.id).count() as u64)
            .sum();
        let added_ids: Vec<_> =
            problem.nets().iter().skip(preplaced as usize).map(|n| n.id).collect();
        attempted += added_ids.len();

        for (cfg, done) in [
            (RouterConfig::no_modification(), &mut frozen_done),
            (RouterConfig::default(), &mut ripup_done),
        ] {
            let out = MightyRouter::new(cfg)
                .try_route_incremental(&problem, db.clone())
                .expect("database built for this problem");
            let report = verify(&problem, out.db());
            assert!(
                report.is_clean() || report.is_legal_but_incomplete(),
                "illegal ECO routing: {report}"
            );
            *done += added_ids.iter().filter(|id| !out.failed().contains(id)).count();
            if cfg.strong {
                let post_traces: u64 = problem
                    .nets()
                    .iter()
                    .take(preplaced as usize)
                    .map(|n| out.db().traces(n.id).count() as u64)
                    .sum();
                disturbed += post_traces.abs_diff(pre_traces);
            }
        }
    }
    EcoPoint {
        preplaced: preplaced as usize,
        added: added as usize,
        frozen_pct: 100.0 * frozen_done as f64 / attempted.max(1) as f64,
        ripup_pct: 100.0 * ripup_done as f64 / attempted.max(1) as f64,
        disturbed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_point_reports_percentages() {
        let cfg = RouterConfig::default();
        let p = completion_point(10, 4, 3, cfg);
        assert!(p.completion_pct >= 0.0 && p.completion_pct <= 100.0);
        assert!(p.full_pct >= 0.0 && p.full_pct <= 100.0);
        assert_eq!(p.nets, 4);
    }

    #[test]
    fn modification_never_reduces_completion_on_small_sweep() {
        let none = completion_point(10, 10, 4, RouterConfig::no_modification());
        let full = completion_point(10, 10, 4, RouterConfig::default());
        assert!(full.completion_pct >= none.completion_pct);
    }

    #[test]
    fn scaling_point_measures() {
        let p = scaling_point(10, 5, 1);
        assert!(p.millis >= 0.0);
        assert!(p.expanded > 0);
    }

    #[test]
    fn obstacle_point_compares_routers() {
        let p = obstacle_point(12, 5, 10, 2);
        assert!(p.mighty_pct >= 0.0 && p.mighty_pct <= 100.0);
        assert!(p.sequential_pct <= p.mighty_pct + 1e-9 || p.sequential_pct <= 100.0);
    }

    #[test]
    fn ablations_enumerate_four_configs() {
        assert_eq!(ABLATIONS.len(), 4);
        let names: Vec<&str> = ABLATIONS.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"weak+strong"));
        // Configurations are actually distinct.
        assert!(!ABLATIONS[0].1().strong && ABLATIONS[3].1().strong);
    }
}
