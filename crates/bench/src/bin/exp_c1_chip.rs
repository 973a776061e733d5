//! Experiment C1: chip-scale hierarchical flow — parallel per-tile
//! detail routing with seam stitching vs flat single-grid routing.
//!
//! ```text
//! cargo run --release -p route-bench --bin exp_c1_chip [-- --quick]
//! ```
//!
//! Generates one deterministic synthetic chip ([`ChipGen`]): in the
//! full configuration a 512x512 floorplan with 10,560 mostly-local nets
//! and 24 macro obstacles over a 16x16 tile grid (256 tiles). The chip
//! is routed flat (one rip-up router over the whole grid) and
//! hierarchically at 1..N workers, [`FULL_REPS`] times each in the full
//! configuration. Every hierarchical database must be byte-identical
//! regardless of the job count, every repetition must reproduce its
//! configuration's checksum, and the full-size runs must come out
//! verifier-clean with the pinned checksums [`FLAT_CHECKSUM`] and
//! [`HIER_CHECKSUM`], so a change to die-scale routing fails here
//! instead of silently rewriting the record. Writes the machine-readable
//! record, with the median, minimum and maximum time of each
//! configuration, the hardware thread count and the commit, to
//! `BENCH_chip.json` (skipped in `--quick`, the CI smoke mode).

use std::time::Instant;

use mighty::{MightyRouter, RouterConfig};
use route_bench::{provenance, table};
use route_benchdata::gen::ChipGen;
use route_global::{route_hierarchical, GlobalConfig, TileGrid};
use route_model::{Problem, RouteDb};
use route_proto::{versioned_doc, Json};
use route_verify::verify;

/// Repetitions per configuration in the full run.
const FULL_REPS: usize = 3;
/// The full chip's flat routing checksum.
const FLAT_CHECKSUM: u64 = 0x8fe2_71b0_3c9d_eb16;
/// The full chip's hierarchical routing checksum, at every job count.
const HIER_CHECKSUM: u64 = 0x7a3c_c6d7_7292_ac83;

struct Row {
    config: &'static str,
    jobs: usize,
    /// Wall time of each repetition, sorted ascending.
    ms: Vec<f64>,
    routed: usize,
    checksum: u64,
}

impl Row {
    fn median_ms(&self) -> f64 {
        self.ms[self.ms.len() / 2]
    }
}

/// Routes `problem` `reps` times with `route` and checks every result:
/// legal (clean in the full run), and one checksum across repetitions.
fn measure(
    problem: &Problem,
    config: &'static str,
    jobs: usize,
    reps: usize,
    full: bool,
    route: impl Fn() -> (RouteDb, usize),
) -> Row {
    let mut row = Row { config, jobs, ms: Vec::new(), routed: 0, checksum: 0 };
    for rep in 0..reps {
        let start = Instant::now();
        let (db, failed) = route();
        row.ms.push(start.elapsed().as_secs_f64() * 1e3);
        let checksum = db.checksum();
        if rep == 0 {
            let report = verify(problem, &db);
            assert!(report.is_clean() || report.is_legal_but_incomplete(), "{report}");
            if full {
                assert!(
                    report.is_clean(),
                    "the full-size chip must route verifier-clean: {report}"
                );
            }
            row.checksum = checksum;
            row.routed = problem.nets().len() - failed;
        }
        assert_eq!(checksum, row.checksum, "{config} jobs={jobs}: repetition {rep} diverged");
    }
    row.ms.sort_by(f64::total_cmp);
    eprintln!("{config} jobs={jobs} done in {:.1}s (median of {reps})", row.median_ms() / 1e3);
    row
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let (gen, tile) = if quick {
        (ChipGen::small(1), 16)
    } else {
        (ChipGen { width: 512, height: 512, nets: 10_560, macros: 24, ..ChipGen::small(1) }, 32)
    };
    let problem = gen.build();
    let tile_count = TileGrid::new(&problem, tile).tiles().count();
    let nets = problem.nets().len();
    println!(
        "C1: {}x{} chip, {nets} nets, {} macros, seed {} — {tile_count} tiles of {tile}\n",
        gen.width, gen.height, gen.macros, gen.seed
    );
    if !quick {
        assert!(tile_count >= 100, "the full chip must span at least 100 tiles");
        assert!(nets >= 10_000, "the full chip must carry at least 10k nets");
    }

    let reps = if quick { 1 } else { FULL_REPS };
    let mut rows: Vec<Row> = Vec::new();

    // Flat baseline: one rip-up router over the whole grid.
    let router = MightyRouter::new(RouterConfig::default());
    rows.push(measure(&problem, "flat", 1, reps, !quick, || {
        let flat = router.route(&problem);
        let failed = flat.failed().len();
        (flat.into_db(), failed)
    }));

    // Hierarchical at 1..N workers: the database must not depend on N.
    let hw = provenance::hardware_threads();
    let sweep = if hw > 1 { vec![1, hw] } else { vec![1, 2] };
    for jobs in sweep {
        let cfg = GlobalConfig { tile, jobs, ..GlobalConfig::default() };
        rows.push(measure(&problem, "hier", jobs, reps, !quick, || {
            let hier = route_hierarchical(&problem, &cfg);
            let failed = hier.failed().len();
            (hier.into_db(), failed)
        }));
    }
    let hier_checksums: Vec<u64> =
        rows.iter().filter(|r| r.config == "hier").map(|r| r.checksum).collect();
    assert!(
        hier_checksums.windows(2).all(|w| w[0] == w[1]),
        "hierarchical checksums depend on the job count: {hier_checksums:x?}"
    );
    if !quick {
        for r in &rows {
            let pinned = if r.config == "flat" { FLAT_CHECKSUM } else { HIER_CHECKSUM };
            assert_eq!(
                r.checksum, pinned,
                "{} jobs={}: checksum {:016x}, pinned {pinned:016x}",
                r.config, r.jobs, r.checksum
            );
        }
    }

    let render: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                r.jobs.to_string(),
                format!("{:.0}", r.median_ms()),
                format!("{:.0}", nets as f64 / r.median_ms() * 1e3),
                format!("{}/{nets}", r.routed),
                format!("{:016x}", r.checksum),
            ]
        })
        .collect();
    let header = ["config", "jobs", "median ms", "nets/sec", "routed", "checksum"];
    println!("{}", table::render(&header, &render));
    println!("hierarchical databases bit-identical across job counts.");
    if !quick {
        println!("checksums match the pinned flat and hierarchical values.");
    }

    if !quick {
        let runs: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("config", Json::str(r.config)),
                    ("jobs", Json::from(r.jobs as u64)),
                    ("ms", Json::from(r.median_ms())),
                    ("ms_min", Json::from(r.ms[0])),
                    ("ms_max", Json::from(r.ms[r.ms.len() - 1])),
                    ("nets_per_sec", Json::from(nets as f64 / r.median_ms() * 1e3)),
                    ("routed", Json::from(r.routed as u64)),
                    ("nets", Json::from(nets as u64)),
                    ("checksum", Json::str(format!("{:016x}", r.checksum))),
                ])
            })
            .collect();
        let doc = versioned_doc(
            "exp_c1_chip",
            vec![
                ("width".to_string(), Json::from(u64::from(gen.width))),
                ("height".to_string(), Json::from(u64::from(gen.height))),
                ("nets".to_string(), Json::from(nets as u64)),
                ("macros".to_string(), Json::from(u64::from(gen.macros))),
                ("seed".to_string(), Json::from(gen.seed)),
                ("tile".to_string(), Json::from(u64::from(tile))),
                ("tiles".to_string(), Json::from(tile_count as u64)),
                ("reps".to_string(), Json::from(reps as u64)),
                ("hardware_threads".to_string(), Json::from(hw as u64)),
                ("commit".to_string(), Json::str(provenance::commit())),
                ("runs".to_string(), Json::Arr(runs)),
            ],
        );
        let path = "BENCH_chip.json";
        std::fs::write(path, doc.render()).expect("writing BENCH_chip.json");
        println!("wrote {path}");
    }
}
