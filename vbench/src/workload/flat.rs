//! `flat`: chips routed flat by one rip-up router.
//!
//! A pass routes 100 chips of 96×96 cells, 370 nets (the C1 pin density)
//! and 2 macros, drawn from the seed, each with `MightyRouter::route`.
//! The grid is large next to its nets' spans and contention is low, so
//! the best-state `RouteDb` clone after every improving commit
//! (`remember_best`) takes over half the time; its cost grows with the
//! grid area times the commits, while `maze` barely pays it. This is the
//! workload an undo-log snapshot should move, and `maze` the one where
//! it should not. The share grows with the chip (0.72 at 128×128), but
//! a pass must route enough chips for a tail and still repeat in a run:
//! 100 chips take about seven seconds.

use std::time::Instant;

use mighty::{MightyRouter, RouterConfig};

use super::{check, overhead, secs, ChipPool, Measurement, RunConfig, Shape};
use crate::observe::{RouterLayers, TimingObserver};
use crate::trace::Tracer;

/// Chips in a pass.
pub const CHIPS: usize = 100;
/// How the chips become metrics; with 100 chips, the 90th percentile is
/// the highest with ten beyond it.
pub const SHAPE: Shape = Shape { batch: 10, concurrency: 1.0, tail: 0.90 };

/// The `flat` pool for `seed`.
pub fn pool(seed: u64, quick: bool) -> ChipPool {
    if quick {
        ChipPool { seed, count: 2, size: 64, nets: 165, macros: 1 }
    } else {
        ChipPool { seed, count: CHIPS, size: 96, nets: 370, macros: 2 }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measurement {
    let chips = pool(cfg.seed, cfg.quick);
    let mut m = Measurement::new(chips.count, chips.count, SHAPE);
    let router = MightyRouter::new(RouterConfig::default());
    let mut tracer = Tracer::new(Instant::now());
    let mut total = RouterLayers::default();
    let (mut calls, mut plain_s, mut traced_s) = (0, 0.0, 0.0);
    cfg.passes(
        &mut m,
        chips.count,
        |m| chips.generate(m),
        |m, pool, i| {
            let (label, problem) = &pool[i];
            let start = Instant::now();
            let out = router.route(problem);
            let wall_s = secs(start);
            let Some(got) = m.routed(i, label, check(problem, out.db(), out.failed()), wall_s)
            else {
                return;
            };
            if !cfg.trace {
                return;
            }
            let call = tracer.open("router.route", None);
            let mut obs = TimingObserver::start();
            let traced = router.route_observed(problem, &mut obs);
            let layers = obs.finish();
            traced_s += tracer.close(call);
            plain_s += wall_s;
            calls += 1;
            tracer.router(call, &layers);
            total.add(&layers);
            if traced.db().checksum() != got.checksum {
                m.fail(format!("{label}: the traced route differs from the untraced one"));
            }
        },
    );
    if cfg.trace {
        m.router_layers(&total, calls);
        m.layer("trace.overhead_frac", overhead(traced_s, plain_s));
        m.tracer = Some(tracer);
    }
    m
}
