//! Property-style tests of the hierarchical pipeline: on arbitrary
//! floorplans the pasted global result is always legal, and never
//! completes fewer nets than the pure tiled phase. Instances come from
//! the deterministic `route_benchdata` generator so the crate builds
//! with zero registry access.

use route_benchdata::gen::SwitchboxGen;
use route_benchdata::rng::SplitMix64;
use route_global::{route_hierarchical, GlobalConfig, TileGrid};
use route_verify::verify;

/// Arbitrary floorplans, arbitrary tile sizes: the hierarchical
/// result is always legal and consistent with its failure report.
#[test]
fn hierarchical_routing_is_always_legal() {
    let mut rng = SplitMix64::new(0x6701);
    for _ in 0..24 {
        let side = rng.range(12, 40) as u32;
        let nets = (rng.range(2, 16) as u32).min(side);
        let tile = rng.range(4, 20) as u32;
        let seed = rng.below(1000);
        let fallback = rng.chance(50);
        let problem = SwitchboxGen { width: side, height: side, nets, seed }.build();
        let cfg = GlobalConfig { tile, fallback, ..GlobalConfig::default() };
        let out = route_hierarchical(&problem, &cfg);
        let report = verify(&problem, out.db());
        assert!(
            report.is_clean() || report.is_legal_but_incomplete(),
            "illegal hierarchical routing: {report}"
        );
        assert_eq!(out.failed().len(), report.disconnected_nets());
        assert_eq!(out.is_complete(), report.is_clean());
    }
}

/// The fallback pass never loses nets.
#[test]
fn fallback_is_monotone() {
    let mut rng = SplitMix64::new(0x6702);
    for _ in 0..16 {
        let side = rng.range(16, 36) as u32;
        let nets = rng.range(4, 14) as u32;
        let seed = rng.below(500);
        let problem = SwitchboxGen { width: side, height: side, nets, seed }.build();
        let tiled_only = route_hierarchical(
            &problem,
            &GlobalConfig { fallback: false, ..GlobalConfig::default() },
        );
        let with_fallback = route_hierarchical(
            &problem,
            &GlobalConfig { fallback: true, ..GlobalConfig::default() },
        );
        assert!(with_fallback.failed().len() <= tiled_only.failed().len());
    }
}

/// Parallel tile routing is bit-identical to serial tile routing.
#[test]
fn parallel_equals_serial() {
    let mut rng = SplitMix64::new(0x6703);
    for _ in 0..12 {
        let side = rng.range(16, 40) as u32;
        let nets = rng.range(4, 14) as u32;
        let seed = rng.below(200);
        let problem = SwitchboxGen { width: side, height: side, nets, seed }.build();
        let serial =
            route_hierarchical(&problem, &GlobalConfig { jobs: 1, ..GlobalConfig::default() });
        let parallel =
            route_hierarchical(&problem, &GlobalConfig { jobs: 4, ..GlobalConfig::default() });
        assert_eq!(serial.failed(), parallel.failed());
        assert_eq!(serial.db().stats(), parallel.db().stats());
        assert_eq!(serial.db().grid(), parallel.db().grid());
    }
}

/// Tiling arithmetic: every grid point belongs to exactly one tile
/// whose rectangle contains it, and tile rects partition the grid.
#[test]
fn tiles_partition_the_grid() {
    let mut rng = SplitMix64::new(0x6704);
    for _ in 0..48 {
        let w = rng.range(3, 50) as u32;
        let h = rng.range(3, 50) as u32;
        let tile = rng.range(1, 20) as u32;
        let mut b = route_model::ProblemBuilder::switchbox(w, h);
        b.net("a").pin_side(route_model::PinSide::Left, 0).pin_side(route_model::PinSide::Right, 0);
        let p = b.build().expect("valid");
        let tiles = TileGrid::new(&p, tile);
        let mut covered = 0u64;
        for t in tiles.tiles() {
            covered += tiles.rect(t).area();
        }
        assert_eq!(covered, u64::from(w) * u64::from(h));
        for pt in p.base_grid().bounds().cells() {
            let t = tiles.tile_of(pt);
            assert!(tiles.rect(t).contains(pt));
        }
    }
}
