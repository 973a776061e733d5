//! Experiment M1: hot-path throughput of the maze-search inner loop
//! across both frontiers.
//!
//! ```text
//! cargo run --release -p route-bench --bin exp_m1_hotpath [-- --quick] [-- --gate]
//! ```
//!
//! Routes the replicated channel suite through the sequential Lee
//! baseline and the rip-up router under each mode of
//! [`route_bench::hotpath::MODES`], asserts the results are
//! bit-identical and the effort counters (`expanded`, `soft_routes`,
//! `rips`) equal, and reports routed-nets/second with those counters. Writes the
//! machine-readable record to `BENCH_maze.json` in the working
//! directory (skipped in `--quick` mode, which is the CI smoke
//! configuration).
//!
//! With `--gate`, exits nonzero if the modes of a router differ in
//! checksum or effort counters (the sweep panics), if a router's
//! checksum leaves its pinned value (the pre-PR databases for the full
//! batch, [`QUICK_CHECKSUMS`](route_bench::hotpath::QUICK_CHECKSUMS) for
//! `--quick`), or if the default bucket-queue mode is slower than the
//! binary-heap mode on the rip-up router — the regression guard
//! `scripts/ci.sh` runs.

use route_bench::hotpath::{
    checksum_matches, hotpath_batch, hotpath_json, hotpath_sweep, mighty_speedup, pre_pr_speedup,
    MODES, PRE_PR_COMMIT, QUICK_INSTANCES, QUICK_PIN_COMMIT,
};
use route_bench::table;

const INSTANCES: usize = 64;
const REPS: usize = 5;
const QUICK_REPS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let (instances, reps) = if quick { (QUICK_INSTANCES, QUICK_REPS) } else { (INSTANCES, REPS) };

    println!(
        "M1: hot-path throughput — {} channel-suite instances x {reps} rep(s), {} mode(s)\n",
        instances,
        MODES.len()
    );
    let problems = hotpath_batch(instances);
    let points = hotpath_sweep(&problems, reps);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.router.to_string(),
                p.mode.to_string(),
                format!("{:.1}", p.millis),
                format!("{:.0}", p.nets_per_sec),
                p.nets_routed.to_string(),
                format!("{}/{instances}", p.complete),
                format!("{:016x}", p.checksum),
                p.effort.expanded.to_string(),
                p.effort.soft_routes.to_string(),
                p.effort.rips.to_string(),
            ]
        })
        .collect();
    let header = [
        "router", "mode", "total ms", "nets/sec", "nets", "complete", "checksum", "expanded",
        "soft", "rips",
    ];
    println!("{}", table::render(&header, &rows));
    println!("all modes verified bit-identical, with equal effort counters, per router.");

    let speedup = mighty_speedup(&points);
    println!("\nmighty buckets-bits vs heap-bits: {speedup:.2}x routed-nets/sec");
    let mut diverged = Vec::new();
    for router in ["lee", "mighty"] {
        let Some(matches) = checksum_matches(&points, instances, router) else { continue };
        let verdict = if matches { "bit-identical" } else { "DIVERGED" };
        match pre_pr_speedup(&points, instances, router) {
            Some(vs_pre) => println!(
                "{router} buckets-bits vs pre-PR binary ({PRE_PR_COMMIT}): {vs_pre:.2}x, \
                 checksum {verdict}"
            ),
            None => println!("{router} checksum vs {QUICK_PIN_COMMIT}: {verdict}"),
        }
        if !matches {
            diverged.push(router);
        }
    }

    if !quick {
        let doc = hotpath_json(instances, reps, &points);
        let path = "BENCH_maze.json";
        std::fs::write(path, doc.render()).expect("writing BENCH_maze.json");
        println!("wrote {path}");
    }

    if gate {
        if !diverged.is_empty() {
            eprintln!("GATE FAILED: {} left the pinned checksum", diverged.join(" and "));
            std::process::exit(1);
        }
        if speedup < 1.0 {
            eprintln!(
                "GATE FAILED: bucket frontier is slower than the binary heap ({speedup:.2}x)"
            );
            std::process::exit(1);
        }
        println!(
            "gate passed: buckets {speedup:.2}x heap nets/sec; checksums pinned, and checksums \
             and effort counters identical across frontiers"
        );
    }
}
