//! `vbench`: one benchmark for the router — four workloads, end-to-end
//! metrics, and a per-layer trace timed from outside.
//!
//! ```text
//! cargo run --release --manifest-path vbench/Cargo.toml -- \
//!     --workload NAME --seed S [--seconds T] [--trace 0|1|PATH] [--quick] [--record FILE]
//! cargo run --release --manifest-path vbench/Cargo.toml -- compare A.ldj B.ldj
//! ```
//!
//! Each invocation runs one workload in its own process, so its peak
//! memory is that workload's. It builds its inputs from `--seed`,
//! measures for `--seconds` (by default the `run_seconds` of
//! `BENCHMARK.json`) in passes over those inputs, reads every time at a
//! reference host speed through a kernel timed just before it
//! ([`calib`]), times each input at its median pass, checks every
//! output with `route_verify::verify` (and against the reference
//! checksum of the same input), prints every metric with its unit, and ends with one
//! JSON line: `correct`, `attempted`, `failed`, `metrics`. It exits
//! non-zero when any output is illegal or differs from its reference —
//! including a traced output that differs from the untraced one.
//!
//! | workload | input | why |
//! |---|---|---|
//! | `maze` | 1,152 channel-suite instances, warm arena (seed 0 = the M1 batch) | heavy rip-up on small grids: search and modification dominate, snapshots are cheap, `route-global` is bypassed |
//! | `flat` | 100 chips of 96×96 and 370 nets, routed flat | a grid large next to its nets, little contention: the best-state snapshot clone dominates |
//! | `chip` | 100 chips of 192×192 and 844 nets, tile 32, 2 jobs | the headline hierarchical flow: plan, tile batch, seam ladder; traced runs also price supervision and the journal |
//! | `serve` | 1,000 requests from 2 closed-loop callers, 2 warm workers, 90% channels / 10% blocks | per-request overheads of the wire path and the queue |
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced
//! runs (`--trace 1`, or a path to also write the spans) report the
//! per-layer metrics, measured from outside the router crates by timing
//! calls into their public functions and timestamping the public
//! `RouteObserver` callbacks ([`observe::TimingObserver`]):
//!
//! | metrics | layer | should move | dominates / idle |
//! |---|---|---|---|
//! | `router.hard_search_s`, `router.hard_searches`, `router.hard_found_frac`, `router.expanded` | route-maze | `nets_per_s` | `maze` / — |
//! | `router.soft_search_s`, `router.soft_searches` | route-maze | `nets_per_s` | `maze` / `flat`, `chip` |
//! | `router.weak_s`, `router.weak_mods`, `router.strong_s`, `router.strong_ripups` | mighty-core::router | `nets_per_s` | `maze` / `flat`, `chip` |
//! | `router.commit_s`, `router.commits` | mighty-core::router | `nets_per_s` | `maze`, `flat`, `chip` |
//! | `router.snapshot_s` | mighty-core::router | `nets_per_s` | `flat`, `chip` (flat repair) / `maze` |
//! | `router.attributed_frac` | coverage of the split | — | — |
//! | `chip.plan_s`, `chip.tiles_s`, `chip.seam_s`, `chip.flat_repair_s` | route-global | `nets_per_s` | `chip` / others |
//! | `chip.tile_failures`, `chip.seams_repaired`, `chip.seam_escalations`, `chip.seam_completed`, `chip.fallback_completed`, `chip.pruned_steps` | route-global | `nets_per_s` | `chip` / others |
//! | `sup.tiles_retried`, `sup.tiles_salvaged`, `sup.tiles_fell_back` | mighty-core::recover | — | traced `chip` / others |
//! | `journal.write_s`, `journal.bytes` | mighty-core::journal | — | traced `chip` / others |
//! | `serve.decode_ms`, `serve.encode_ms` | route-proto, route-benchdata::format | `p50_ms` | `serve` / others |
//! | `serve.queue_ms`, `serve.route_ms`, `serve.max_queue_depth` | mighty-core::serve | `tail_ms`, `rps` | `serve` / others |
//! | `serve.verify_ms` | route-verify | `p50_ms` | `serve` / others |
//! | `gen_s` | route-benchdata | `setup_s` | every workload |
//! | `trace.overhead_frac` | the harness | — | every workload |
//!
//! `serve` sends every request, traced or not, to the workers' warm
//! `route_warm`, whose router events reach a caller only untimed, so it
//! reports no `router.*` split: `maze` times that same call.
//!
//! The catalogue of names, units, directions and bounds is the
//! repository's `BENCHMARK.json`, compiled in ([`report::Catalogue`]).

#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod observe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
