//! Tracing is inert: on toy inputs of every workload shape, routing
//! through the harness's timing observer yields the same checksums,
//! failed sets and counters as routing without it.

use mighty::{MightyRouter, RouterConfig};
use route_global::{route_hierarchical, route_hierarchical_observed, GlobalConfig};
use route_maze::SearchArena;
use vbench::observe::TimingObserver;
use vbench::workload::maze::channel_batch;
use vbench::workload::{self, chip, flat, RunConfig, Workload};

#[test]
fn observed_routing_matches_unobserved_routing() {
    let router = MightyRouter::new(RouterConfig::default());
    let mut problems: Vec<_> = channel_batch(11, 9).into_iter().map(|(_, p)| p).collect();
    problems.push(flat::pool(11, true).chip(0).1);
    let mut arena = SearchArena::new();
    for problem in &problems {
        let plain = router.route_warm(problem, &mut arena);
        let mut obs = TimingObserver::start();
        let traced = router.route_warm_observed(problem, &mut arena, &mut obs);
        let layers = obs.finish();
        assert_eq!(plain.db().checksum(), traced.db().checksum());
        assert_eq!(plain.failed(), traced.failed());
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(layers.soft_searches, traced.stats().soft_routes);
        assert!(layers.attributed_frac() <= 1.0);
    }
}

#[test]
fn observed_chip_flow_matches_the_plain_flow() {
    let problem = chip::pool(11, true).chip(0).1;
    let cfg = GlobalConfig { tile: 32, jobs: 2, ..GlobalConfig::default() };
    let plain = route_hierarchical(&problem, &cfg);
    let mut obs = TimingObserver::start();
    let traced = route_hierarchical_observed(&problem, &cfg, &mut obs);
    obs.finish();
    assert_eq!(plain.db().checksum(), traced.db().checksum());
    assert_eq!(plain.failed(), traced.failed());
    assert_eq!(plain.chip_stats(), traced.chip_stats());
    assert_eq!(plain.stats(), traced.stats());
}

#[test]
fn traced_runs_reproduce_untraced_checksums() {
    for workload in Workload::ALL {
        let run = |trace: bool| {
            workload::run(&RunConfig { workload, seed: 11, seconds: 0.0, quick: true, trace })
        };
        let (plain, traced) = (run(false), run(true));
        assert!(traced.failures.is_empty(), "{}: {:?}", workload.name(), traced.failures);
        assert_eq!(plain.checksums, traced.checksums, "{}", workload.name());
        assert_eq!(plain.quality.routed, traced.quality.routed, "{}", workload.name());
    }
}
