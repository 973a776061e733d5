//! `maze`: the M1 hot-path batch, as a stream of instances.
//!
//! Channel-suite instances routed back to back by
//! `MightyRouter::route_warm` on one warm `SearchArena`. The grids are
//! small and the rip-up is heavy (~918 soft searches and ~364 strong
//! rip-ups per 64 instances at seed 0), so search and modification do
//! the work while the best-state snapshot stays cheap, and
//! `route-global` is bypassed entirely. Seed 0 routes the suite itself,
//! replicated — the M1 batch; every other seed regenerates the eight
//! generated shapes through `ChannelGen`, one fresh instance per slot.
//!
//! A pass routes 1,152 instances, 128 of each shape. A few of every
//! seed's instances need ten to twenty times the search work of their
//! shape's median, and how many a seed draws decides its total: over 16
//! seeds of 576 instances, the interquartile spread of a pass's total
//! search work was 13% of its median, against 6% for the median suite
//! batch (one instance of each shape). So the rates are the median suite
//! batch's, and a pass routes twice 576 instances, which takes about 20
//! seconds; the reference-speed times already hold still without a
//! second pass. For the same reason `tail_ms` is the 90th percentile
//! (115 instances beyond it): over ten seeds the 99th, the highest with
//! ten beyond it, spread by 47% of its median, the 98th by 24%, the
//! 90th by 3.5%.

use std::time::Instant;

use mighty::{MightyRouter, RouterConfig};
use route_benchdata::deutsch_class;
use route_benchdata::gen::ChannelGen;
use route_benchdata::suite::channel_suite;
use route_maze::SearchArena;
use route_model::Problem;

use super::{check, overhead, secs, sub_seed, Measurement, RunConfig, Shape};
use crate::observe::{RouterLayers, TimingObserver};
use crate::trace::Tracer;

/// Instances in a pass.
pub const POOL: usize = 1152;
/// Instances in quick mode: one of each shape.
const QUICK_POOL: usize = 9;
/// Tracks above density each channel gets, as in the M1 batch, so the
/// run measures routing rather than infeasibility handling.
const TRACK_SLACK: usize = 3;
/// Generator family tag for [`sub_seed`].
const SALT: u64 = 1;
/// How the instances become metrics: rates over suite batches, one
/// instance of each shape.
pub const SHAPE: Shape = Shape { batch: SHAPES.len() + 1, concurrency: 1.0, tail: 0.90 };

/// The eight generated shapes of the channel suite (name, width, nets,
/// extra-pin percent, span window); the ninth is the Deutsch-class
/// channel, which every seed keeps.
const SHAPES: [(&str, usize, u32, u32, usize); 8] = [
    ("ch-20a", 20, 8, 0, 8),
    ("ch-20b", 20, 9, 40, 8),
    ("ch-40a", 40, 16, 0, 13),
    ("ch-40b", 40, 18, 50, 13),
    ("ch-60a", 60, 25, 30, 20),
    ("ch-80a", 80, 34, 40, 26),
    ("ch-120a", 120, 50, 50, 40),
    ("ch-120b", 120, 55, 70, 40),
];

/// `count` channel instances cycling through the suite's nine shapes.
/// Seed 0 replicates the suite itself; other seeds draw every generated
/// instance afresh.
pub fn channel_batch(seed: u64, count: usize) -> Vec<(String, Problem)> {
    let suite = if seed == 0 { channel_suite() } else { Vec::new() };
    (0..count)
        .map(|i| {
            let shape = i % (SHAPES.len() + 1);
            let (name, spec) = match (suite.get(shape), SHAPES.get(shape)) {
                (Some((name, spec)), _) => (name.to_string(), spec.clone()),
                (None, Some(&(name, width, nets, extra_pin_pct, span_window))) => {
                    let seed = sub_seed(seed, SALT, i as u64);
                    let gen = ChannelGen { width, nets, extra_pin_pct, span_window, seed };
                    (name.to_string(), gen.build())
                }
                (None, None) => ("deutsch-class".to_string(), deutsch_class()),
            };
            (format!("{name}#{i}"), spec.to_problem(spec.density() as usize + TRACK_SLACK))
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measurement {
    let count = if cfg.quick { QUICK_POOL } else { POOL };
    let mut m = Measurement::new(count, count, SHAPE);
    let router = MightyRouter::new(RouterConfig::default());
    let mut tracer = Tracer::new(Instant::now());
    let mut total = RouterLayers::default();
    let (mut calls, mut plain_s, mut traced_s) = (0, 0.0, 0.0);
    let setup = |m: &mut Measurement| {
        let start = Instant::now();
        let pool = channel_batch(cfg.seed, count);
        m.gen_s.push(secs(start));
        // Warm-up: the Deutsch-class channel, the widest grid of every
        // seed's pool, grows the arena to its final size.
        let mut arena = SearchArena::new();
        if let Some((_, widest)) = pool.iter().max_by_key(|(_, p)| p.width() * p.height()) {
            router.route_warm(widest, &mut arena);
        }
        (pool, arena)
    };
    cfg.passes(&mut m, count, setup, |m, (pool, arena), i| {
        let (label, problem) = &pool[i];
        let start = Instant::now();
        let out = router.route_warm(problem, arena);
        let wall_s = secs(start);
        let Some(got) = m.routed(i, label, check(problem, out.db(), out.failed()), wall_s) else {
            return;
        };
        if !cfg.trace {
            return;
        }
        let call = tracer.open("router.route_warm", None);
        let mut obs = TimingObserver::start();
        let traced = router.route_warm_observed(problem, arena, &mut obs);
        let layers = obs.finish();
        traced_s += tracer.close(call);
        plain_s += wall_s;
        calls += 1;
        tracer.router(call, &layers);
        total.add(&layers);
        if traced.db().checksum() != got.checksum {
            m.fail(format!("{label}: the traced route differs from the untraced one"));
        }
    });
    if cfg.trace {
        m.router_layers(&total, calls);
        m.layer("trace.overhead_frac", overhead(traced_s, plain_s));
        m.tracer = Some(tracer);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_channel_suite() {
        let suite = channel_suite();
        let seeds = [101, 102, 103, 104, 105, 106, 107, 108];
        for ((&(name, width, nets, extra_pin_pct, span_window), seed), (suite_name, spec)) in
            SHAPES.iter().zip(seeds).zip(&suite)
        {
            assert_eq!(name, *suite_name);
            let regenerated = ChannelGen { width, nets, extra_pin_pct, span_window, seed }.build();
            assert_eq!(&regenerated, spec, "{name} drifted from the suite");
        }
        assert_eq!(suite[8].0, "deutsch-class");
    }

    #[test]
    fn seed_zero_is_the_m1_batch() {
        let ours: Vec<Problem> = channel_batch(0, 64).into_iter().map(|(_, p)| p).collect();
        assert_eq!(ours, route_bench::engine::replicated_channel_batch(64));
    }

    #[test]
    fn other_seeds_regenerate_the_shapes() {
        let a = channel_batch(7, 18);
        let b = channel_batch(7, 18);
        let c = channel_batch(8, 18);
        assert_eq!(a.len(), 18);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.1.nets(), y.1.nets(), "equal seeds give equal inputs");
            assert_eq!(x.0, z.0, "every seed cycles the same shapes");
        }
        assert!(a.iter().zip(&c).any(|(x, z)| x.1.nets() != z.1.nets()));
    }
}
