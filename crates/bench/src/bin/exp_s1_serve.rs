//! Experiment S1: sustained throughput and tail latency of the routing
//! service (`vroute serve`'s warm worker pool) with worker count.
//!
//! ```text
//! cargo run --release -p route-bench --bin exp_s1_serve
//! ```
//!
//! Writes the machine-readable service record to `BENCH_serve.json`
//! in the working directory.

use route_bench::engine::replicated_channel_batch;
use route_bench::serve::{serve_sweep, serve_sweep_json};
use route_bench::table;

const REQUESTS: usize = 128;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let hardware = route_bench::provenance::hardware_threads();
    println!(
        "S1: routing-service throughput — {REQUESTS} channel-suite requests, \
         {hardware} hardware thread(s)\n"
    );
    let problems = replicated_channel_batch(REQUESTS);
    let points = serve_sweep(&problems, &WORKERS);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.wall_ms.to_string(),
                format!("{:.1}", p.requests_per_sec),
                p.p50_ms.to_string(),
                p.p99_ms.to_string(),
                p.max_ms.to_string(),
                format!("{:.1}", p.mean_queued_ms),
                format!("{}/{REQUESTS}", p.complete),
            ]
        })
        .collect();
    let header =
        ["workers", "wall ms", "req/sec", "p50 ms", "p99 ms", "max ms", "queued ms", "complete"];
    println!("{}", table::render(&header, &rows));
    println!("latency = admission to reply (queue wait + routing), exact nearest-rank quantiles;");
    println!("every run is checksum-verified against direct cold routing.");

    let doc = serve_sweep_json("channels", REQUESTS, &points);
    let path = "BENCH_serve.json";
    std::fs::write(path, doc.render()).expect("writing BENCH_serve.json");
    println!("wrote {path}");
}
