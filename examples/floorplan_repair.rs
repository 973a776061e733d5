//! Partially routed areas: the engineering-change scenario the general
//! detailed router exists for.
//!
//! A macro-cell region is routed, then a late netlist change adds two
//! nets whose pins are already walled in by existing wiring. The
//! incremental router repairs the situation by pushing and ripping
//! existing wiring instead of starting over.
//!
//! ```text
//! cargo run --example floorplan_repair
//! ```

use vlsi_route::geom::{Point, Rect};
use vlsi_route::maze::{sequential, CostModel, SearchArena};
use vlsi_route::mighty::{MightyRouter, RouterConfig};
use vlsi_route::model::{render_layers, NopObserver, PinSide, ProblemBuilder, RouteDb};
use vlsi_route::verify::verify;

fn main() {
    // A 14x10 region with two macro obstacles, as around placed blocks.
    let mut builder = ProblemBuilder::switchbox(14, 10);
    builder.obstacle_rect(Rect::with_size(Point::new(3, 3), 3, 3));
    builder.obstacle_rect(Rect::with_size(Point::new(9, 5), 3, 2));
    // The original netlist.
    builder.net("bus0").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
    builder.net("bus1").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
    builder.net("clk").pin_side(PinSide::Bottom, 7).pin_side(PinSide::Top, 7);
    // The late additions (declared up front; routed later).
    builder.net("fix0").pin_side(PinSide::Left, 8).pin_side(PinSide::Right, 8);
    builder.net("fix1").pin_side(PinSide::Bottom, 2).pin_side(PinSide::Top, 11);
    let problem = builder.build().expect("valid problem");

    // Phase 1: route the original nets with the plain sequential router,
    // leaving the late nets untouched.
    let mut db = RouteDb::new(&problem);
    let mut arena = SearchArena::new();
    let original = ["bus0", "bus1", "clk"];
    for name in original {
        let net = problem.net_by_name(name).expect("declared above").id;
        let cost = CostModel::default();
        sequential::connect_net(&mut arena, &mut db, net, cost, Vec::new(), &mut NopObserver)
            .unwrap_or_else(|_| panic!("original net {name} routes in the empty region"));
    }
    println!("after initial routing:\n{}", render_layers(&db));

    // Phase 2: the change order arrives. Route the remaining nets
    // incrementally; existing wiring may be moved.
    let router = MightyRouter::new(RouterConfig::default());
    let outcome =
        router.try_route_incremental(&problem, db).expect("database built for this problem");
    println!("repair complete: {}", outcome.is_complete());
    println!("work: {}", outcome.stats());

    let report = verify(&problem, outcome.db());
    assert!(report.is_clean(), "repair must produce a legal routing: {report}");
    println!("\nafter repair:\n{}", render_layers(outcome.db()));
}
