//! Criterion benchmarks, one group per experiment:
//!
//! * `channels`   — T1: each router on a mid-size suite channel.
//! * `switchbox`  — T2: sequential vs rip-up/reroute on the
//!   Burstein-class box.
//! * `completion` — F1: the four ablation configurations on one
//!   congested switchbox.
//! * `scaling`    — F2: rip-up/reroute runtime vs problem size.
//! * `obstacles`  — T3: obstructed-region routing.

//!
//! The Criterion harness lives behind the **non-default** `criterion`
//! feature so the default workspace builds with zero registry access.
//! Enabling the feature also requires restoring the `criterion`
//! dev-dependency (network access needed); without it this target
//! compiles to a no-op stub.

#[cfg(feature = "criterion")]
mod criterion_benches {
    use criterion::{criterion_group, BenchmarkId, Criterion};
    use std::hint::black_box;

    use mighty::{MightyRouter, RouterConfig};
    use route_benchdata::gen::{ChannelGen, ObstructedGen, SwitchboxGen};
    use route_benchdata::{burstein_class, deutsch_class};
    use route_channel::{dogleg, greedy, lea, yacr};
    use route_maze::{sequential, CostModel, SearchArena, SequentialOutcome};
    use route_model::{NopObserver, Problem};

    /// The sequential baseline in a fresh arena, as every caller builds it.
    fn lee(problem: &Problem) -> SequentialOutcome {
        let mut arena = SearchArena::new();
        sequential::route_all(&mut arena, problem, CostModel::default(), &mut NopObserver)
    }

    fn bench_channels(c: &mut Criterion) {
        let spec =
            ChannelGen { width: 40, nets: 16, extra_pin_pct: 30, span_window: 13, seed: 900 }
                .build();
        let mut group = c.benchmark_group("channels");
        group.bench_function("lea", |b| b.iter(|| black_box(lea::route(&spec))));
        group.bench_function("dogleg", |b| b.iter(|| black_box(dogleg::route(&spec))));
        group.bench_function("greedy", |b| b.iter(|| black_box(greedy::route(&spec))));
        group.bench_function("yacr", |b| b.iter(|| black_box(yacr::route(&spec, 6))));
        let tracks = (spec.density() + 2) as usize;
        let problem = spec.to_problem(tracks);
        let router = MightyRouter::new(RouterConfig::default());
        group.bench_function("ripup", |b| b.iter(|| black_box(router.route(&problem))));
        group.finish();

        // The headline hard channel, routed once per iteration by the
        // fastest classical router as a macro-benchmark.
        let hard = deutsch_class();
        c.bench_function("deutsch_class_greedy", |b| b.iter(|| black_box(greedy::route(&hard))));
    }

    fn bench_switchbox(c: &mut Criterion) {
        let problem = burstein_class();
        let mut group = c.benchmark_group("switchbox");
        group.sample_size(20);
        group.bench_function("sequential", |b| b.iter(|| black_box(lee(&problem))));
        let router = MightyRouter::new(RouterConfig::default());
        group.bench_function("ripup", |b| b.iter(|| black_box(router.route(&problem))));
        group.finish();
    }

    fn bench_completion(c: &mut Criterion) {
        let problem = SwitchboxGen { width: 16, height: 16, nets: 20, seed: 42 }.build();
        let mut group = c.benchmark_group("completion");
        group.sample_size(20);
        for (name, cfg) in [
            ("none", RouterConfig::no_modification()),
            ("weak-only", RouterConfig { strong: false, ..RouterConfig::default() }),
            ("strong-only", RouterConfig { weak: false, ..RouterConfig::default() }),
            ("weak+strong", RouterConfig::default()),
        ] {
            let router = MightyRouter::new(cfg);
            group.bench_function(name, |b| b.iter(|| black_box(router.route(&problem))));
        }
        group.finish();
    }

    fn bench_scaling(c: &mut Criterion) {
        let mut group = c.benchmark_group("scaling");
        group.sample_size(10);
        for (side, nets) in [(8u32, 6u32), (16, 14), (32, 30)] {
            let problem = SwitchboxGen { width: side, height: side, nets, seed: 7 }.build();
            let router = MightyRouter::new(RouterConfig::default());
            group.bench_with_input(BenchmarkId::from_parameter(side), &problem, |b, p| {
                b.iter(|| black_box(router.route(p)))
            });
        }
        group.finish();
    }

    fn bench_obstacles(c: &mut Criterion) {
        let problem =
            ObstructedGen { width: 20, height: 20, nets: 12, obstacle_pct: 15, seed: 3 }.build();
        let mut group = c.benchmark_group("obstacles");
        group.sample_size(20);
        group.bench_function("sequential", |b| b.iter(|| black_box(lee(&problem))));
        let router = MightyRouter::new(RouterConfig::default());
        group.bench_function("ripup", |b| b.iter(|| black_box(router.route(&problem))));
        group.finish();
    }

    fn bench_cleanup(c: &mut Criterion) {
        use route_opt::{cleanup, OptimizeConfig};
        let problem = burstein_class();
        let routed = MightyRouter::new(RouterConfig::default()).route(&problem).into_db();
        let mut group = c.benchmark_group("cleanup");
        group.sample_size(20);
        group.bench_function("burstein", |b| {
            b.iter(|| {
                let mut db = routed.clone();
                black_box(cleanup(&problem, &mut db, &OptimizeConfig::default()))
            })
        });
        group.finish();
    }

    fn bench_layers(c: &mut Criterion) {
        let spec =
            ChannelGen { width: 40, nets: 16, extra_pin_pct: 30, span_window: 13, seed: 900 }
                .build();
        let mut group = c.benchmark_group("layers");
        group.sample_size(10);
        for layers in [2u8, 3] {
            let tracks = (spec.density() + 2) as usize;
            let problem = spec.to_problem_with_layers(tracks, layers);
            let router = MightyRouter::new(RouterConfig::default());
            group.bench_with_input(BenchmarkId::from_parameter(layers), &problem, |b, p| {
                b.iter(|| black_box(router.route(p)))
            });
        }
        group.finish();
    }

    fn bench_hierarchy(c: &mut Criterion) {
        use route_global::{route_hierarchical, GlobalConfig};
        let problem = SwitchboxGen { width: 96, height: 96, nets: 70, seed: 1 }.build();
        let mut group = c.benchmark_group("hierarchy");
        group.sample_size(10);
        let router = MightyRouter::new(RouterConfig::default());
        group.bench_function("flat", |b| b.iter(|| black_box(router.route(&problem))));
        group.bench_function("tiled", |b| {
            b.iter(|| black_box(route_hierarchical(&problem, &GlobalConfig::default())))
        });
        group.finish();
    }

    criterion_group!(
        benches,
        bench_channels,
        bench_switchbox,
        bench_completion,
        bench_scaling,
        bench_obstacles,
        bench_cleanup,
        bench_layers,
        bench_hierarchy
    );
}

#[cfg(feature = "criterion")]
fn main() {
    criterion_benches::benches();
}

#[cfg(not(feature = "criterion"))]
fn main() {
    eprintln!(
        "criterion benches are feature-gated; run scripts/ci.sh or the exp_* binaries instead"
    );
}
