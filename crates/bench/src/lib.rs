//! Experiment harness: shared drivers behind the `exp_*` binaries and the
//! Criterion benches.
//!
//! Each experiment of `EXPERIMENTS.md` is regenerated by one binary:
//!
//! | experiment | binary | what it prints |
//! |------------|--------|----------------|
//! | T1 channel suite | `exp_t1_channels` | tracks per router vs density |
//! | T2 switchboxes | `exp_t2_switchbox` | completion per router, incl. the reduced-width box |
//! | F1 completion vs congestion | `exp_f1_completion` | completion-rate series per configuration |
//! | F2 runtime scaling | `exp_f2_scaling` | wall time and expanded nodes vs size |
//! | T3 obstacles | `exp_t3_obstacles` | completion vs obstacle density |
//! | S1 routing service | `exp_s1_serve` | requests/sec and p50/p99 latency vs worker count |
//!
//! Every data point is verified through [`route_verify`] before being
//! reported; an illegal routing panics the harness rather than entering
//! a table.

#![warn(missing_docs)]

pub mod channels;
pub mod engine;
pub mod hotpath;
pub mod json;
pub mod provenance;
pub mod serve;
pub mod sweeps;
pub mod switchboxes;
pub mod table;
pub mod trace;
