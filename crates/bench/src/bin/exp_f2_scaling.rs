//! Experiment F2: runtime and search-effort scaling of the
//! rip-up/reroute router with problem size, plus batch-engine
//! throughput scaling with thread count.
//!
//! ```text
//! cargo run --release -p route-bench --bin exp_f2_scaling
//! ```
//!
//! Writes the machine-readable engine scaling record to
//! `BENCH_engine.json` in the working directory.

use route_bench::engine::{replicated_channel_batch, scaling_sweep, sweep_json};
use route_bench::sweeps::scaling_point;
use route_bench::table;

const POINTS: [(u32, u32); 6] = [(8, 6), (12, 10), (16, 14), (24, 22), (32, 30), (48, 44)];
const SEEDS: u64 = 5;

const BATCH_INSTANCES: usize = 64;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    println!("F2: rip-up/reroute scaling — mean over {SEEDS} seeds per size\n");
    let mut rows = Vec::new();
    for (side, nets) in POINTS {
        eprintln!("side = {side} ...");
        let mut millis = 0.0;
        let mut expanded = 0u64;
        let mut complete = 0u32;
        for seed in 0..SEEDS {
            let p = scaling_point(side, nets, seed);
            millis += p.millis;
            expanded += p.expanded;
            complete += u32::from(p.complete);
        }
        rows.push(vec![
            format!("{side}x{side}"),
            nets.to_string(),
            format!("{:.2}", millis / SEEDS as f64),
            (expanded / SEEDS).to_string(),
            format!("{complete}/{SEEDS}"),
        ]);
    }
    let header = ["grid", "nets", "mean ms", "mean expanded", "complete"];
    println!("{}", table::render(&header, &rows));
    println!("expanded = A* nodes settled; growth should track grid area x nets.");

    let hardware = route_bench::provenance::hardware_threads();
    println!(
        "\nF2b: batch-engine throughput — {BATCH_INSTANCES} channel-suite instances, \
         {hardware} hardware thread(s)\n"
    );
    let batch = replicated_channel_batch(BATCH_INSTANCES);
    let points = scaling_sweep(&batch, &THREADS);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.jobs.to_string(),
                p.batch_ms.to_string(),
                format!("{:.1}", p.throughput),
                format!("{:.2}x", p.speedup),
                format!("{}/{BATCH_INSTANCES}", p.complete),
            ]
        })
        .collect();
    let header = ["jobs", "batch ms", "inst/sec", "speedup", "complete"];
    println!("{}", table::render(&header, &rows));
    println!("speedup is bounded by the {hardware} hardware thread(s) of this machine;");
    println!("every run is checksum-verified against the single-thread run.");

    let doc = sweep_json("channels", BATCH_INSTANCES, &points);
    let path = "BENCH_engine.json";
    std::fs::write(path, doc.render()).expect("writing BENCH_engine.json");
    println!("wrote {path}");
}
