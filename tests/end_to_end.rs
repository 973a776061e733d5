//! Cross-crate integration tests: full pipelines from instance
//! generation through routing to independent verification.

use vlsi_route::benchdata::format::{parse_channel, parse_problem, write_channel, write_problem};
use vlsi_route::benchdata::gen::{ChannelGen, ObstructedGen, SwitchboxGen};
use vlsi_route::benchdata::{burstein_class, burstein_class_width, deutsch_class, BURSTEIN_WIDTH};
use vlsi_route::channel::{dogleg, greedy, lea, yacr};
use vlsi_route::maze::{sequential, CostModel, SearchArena};
use vlsi_route::mighty::{MightyRouter, RouterConfig};
use vlsi_route::model::{NopObserver, RouteDb};
use vlsi_route::verify::verify;

#[test]
fn generated_switchbox_routes_and_verifies() {
    let problem = SwitchboxGen { width: 14, height: 12, nets: 12, seed: 77 }.build();
    let out = MightyRouter::new(RouterConfig::default()).route(&problem);
    assert!(out.is_complete(), "failed nets: {:?}", out.failed());
    assert!(verify(&problem, out.db()).is_clean());
}

#[test]
fn burstein_class_headline_result() {
    // The abstract's claim, end to end: the difficult switchbox routes
    // completely, and still routes with one less column, while the
    // sequential baseline fails even at nominal width.
    for width in [BURSTEIN_WIDTH, BURSTEIN_WIDTH - 1] {
        let problem = burstein_class_width(width);
        let out = MightyRouter::new(RouterConfig::default()).route(&problem);
        assert!(out.is_complete(), "rip-up must complete at width {width}");
        assert!(verify(&problem, out.db()).is_clean());
    }
    let nominal = burstein_class();
    let seq = sequential::route_all(
        &mut SearchArena::new(),
        &nominal,
        CostModel::default(),
        &mut NopObserver,
    );
    assert!(!seq.is_complete(), "the baseline is expected to fail this box");
}

#[test]
fn deutsch_class_routes_at_density() {
    let spec = deutsch_class();
    let tracks = spec.density() as usize;
    let problem = spec.to_problem(tracks);
    let out = MightyRouter::new(RouterConfig::default()).route(&problem);
    assert!(out.is_complete(), "rip-up must route the difficult channel in density");
    assert!(verify(&problem, out.db()).is_clean());
}

#[test]
fn channel_router_hierarchy_on_one_instance() {
    // One mid-size channel through all routers; verified track counts
    // must respect density and the expected quality ordering must hold
    // loosely (rip-up no worse than the classical routers).
    let spec =
        ChannelGen { width: 40, nets: 16, extra_pin_pct: 30, span_window: 14, seed: 31 }.build();
    let density = spec.density() as usize;

    let mut results: Vec<(&str, usize)> = Vec::new();
    if let Ok(sol) = lea::route(&spec) {
        let (p, db) = sol.layout.realize(&spec).unwrap();
        assert!(verify(&p, &db).is_clean());
        results.push(("lea", sol.tracks));
    }
    if let Ok(sol) = dogleg::route(&spec) {
        let (p, db) = sol.layout.realize(&spec).unwrap();
        assert!(verify(&p, &db).is_clean());
        results.push(("dogleg", sol.tracks));
    }
    let greedy_sol = greedy::route(&spec).expect("greedy always completes");
    {
        let (p, db) = greedy_sol.layout.realize(&spec).unwrap();
        assert!(verify(&p, &db).is_clean());
        results.push(("greedy", greedy_sol.tracks));
    }
    if let Ok(sol) = yacr::route(&spec, 8) {
        assert!(verify(&sol.problem, &sol.db).is_clean());
        results.push(("yacr", sol.tracks));
    }

    // Rip-up/reroute minimum-track search.
    let router = MightyRouter::new(RouterConfig::default());
    let mut ripup_tracks = None;
    for extra in 0..=8usize {
        let problem = spec.to_problem(density + extra);
        let out = router.route(&problem);
        if out.is_complete() {
            assert!(verify(&problem, out.db()).is_clean());
            ripup_tracks = Some(density + extra);
            break;
        }
    }
    let ripup = ripup_tracks.expect("rip-up routes this channel");

    for (name, tracks) in &results {
        assert!(*tracks >= density, "{name} beat the density bound?!");
        assert!(ripup <= *tracks, "rip-up ({ripup}) worse than {name} ({tracks})");
    }
}

#[test]
fn obstructed_region_full_pipeline() {
    let problem =
        ObstructedGen { width: 18, height: 18, nets: 10, obstacle_pct: 15, seed: 9 }.build();
    let out = MightyRouter::new(RouterConfig::default()).route(&problem);
    let report = verify(&problem, out.db());
    assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
}

#[test]
fn text_format_round_trips_through_routing() {
    let problem = SwitchboxGen { width: 10, height: 8, nets: 6, seed: 5 }.build();
    let text = write_problem(&problem);
    let parsed = parse_problem(&text).expect("round trip parses");
    assert_eq!(problem, parsed);
    let out = MightyRouter::new(RouterConfig::default()).route(&parsed);
    assert!(verify(&parsed, out.db()).is_clean() || !out.is_complete());

    let spec = deutsch_class();
    let spec2 = parse_channel(&write_channel(&spec)).expect("channel round trip");
    assert_eq!(spec, spec2);
}

#[test]
fn incremental_repair_respects_existing_wiring() {
    // Pre-route half the nets sequentially, then hand the database to
    // the incremental router for the rest.
    let problem = SwitchboxGen { width: 14, height: 12, nets: 10, seed: 12 }.build();
    let mut db = RouteDb::new(&problem);
    let mut arena = SearchArena::new();
    for net in problem.nets().iter().take(5) {
        let _ = sequential::connect_net(
            &mut arena,
            &mut db,
            net.id,
            CostModel::default(),
            Vec::new(),
            &mut NopObserver,
        );
    }
    let out = MightyRouter::new(RouterConfig::default())
        .try_route_incremental(&problem, db)
        .expect("database built for this problem");
    let report = verify(&problem, out.db());
    assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
    assert!(out.is_complete(), "incremental completion failed: {:?}", out.failed());
}

#[test]
fn verifier_counts_match_router_reports_across_suite() {
    for seed in 0..5 {
        let problem = SwitchboxGen { width: 16, height: 16, nets: 24, seed }.build();
        let out = MightyRouter::new(RouterConfig::default()).route(&problem);
        let report = verify(&problem, out.db());
        assert_eq!(out.failed().len(), report.disconnected_nets(), "seed {seed}");
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "seed {seed}: {report}");
    }
}
