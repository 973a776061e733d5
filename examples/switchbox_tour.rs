//! Tour of the Burstein-class difficult switchbox: route it at nominal
//! width and one column narrower, with and without modification, and
//! render the final layout — the headline experiment of the paper.
//!
//! ```text
//! cargo run --release --example switchbox_tour
//! ```

use vlsi_route::benchdata::{burstein_class_width, BURSTEIN_WIDTH};
use vlsi_route::maze::{sequential, CostModel, SearchArena};
use vlsi_route::mighty::{MightyRouter, RouterConfig};
use vlsi_route::model::{render_layers, NopObserver};
use vlsi_route::verify::verify;

fn main() {
    for width in [BURSTEIN_WIDTH, BURSTEIN_WIDTH - 1] {
        let problem = burstein_class_width(width);
        println!(
            "=== Burstein-class switchbox, {}x{} ({} nets) ===",
            problem.width(),
            problem.height(),
            problem.nets().len()
        );

        let mut arena = SearchArena::new();
        let seq =
            sequential::route_all(&mut arena, &problem, CostModel::default(), &mut NopObserver);
        println!(
            "sequential maze:  {}/{} nets",
            problem.nets().len() - seq.failed.len(),
            problem.nets().len()
        );

        let outcome = MightyRouter::new(RouterConfig::default()).route(&problem);
        let report = verify(&problem, outcome.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "illegal routing: {report}");
        println!(
            "rip-up/reroute:   {}/{} nets   ({})",
            problem.nets().len() - outcome.failed().len(),
            problem.nets().len(),
            outcome.stats()
        );
        if width == BURSTEIN_WIDTH - 1 && outcome.is_complete() {
            println!("\nrouted with one less column than the nominal data:\n");
            println!("{}", render_layers(outcome.db()));
        }
        println!();
    }
}
